/**
 * @file
 * Internal seam between the dispatcher (occupancy.cc) and the backend
 * translation units.  Each backend TU exports exactly one accessor;
 * unsupported backends return nullptr so the dispatcher needs no
 * per-architecture preprocessor logic.  Below the accessors sit the
 * three loops that are written once and compiled per backend, with no
 * intrinsics: the weight generator's keep bits, 64 rows at a time
 * (KernelTable::keepBlock), and the two passes over a B stream's take
 * rows that handle every PE column of a row together: the packing
 * cycle's step extents (KernelTable::takeExtents, a take word's
 * columns at once) and the dual engine's live masks
 * (KernelTable::liveMasks, 8 columns to a vector).
 */

#ifndef GRIFFIN_SIMD_KERNELS_HH
#define GRIFFIN_SIMD_KERNELS_HH

#include <cstdint>
#include <cstring>

#include "common/rng.hh"
#include "simd/occupancy.hh"

namespace griffin {
namespace simd {
namespace detail {

/** The portable reference kernels; always available. */
const KernelTable &scalarTable();

/** AVX2 kernels when the build targets x86 and the CPU has AVX2. */
const KernelTable *avx2Table();

/**
 * The AVX2 table with the three shared loops below compiled for
 * AVX-512, when the build targets x86 and the CPU has AVX2 and AVX-512
 * F/BW/VL/DQ.
 */
const KernelTable *avx512Table();

/**
 * KernelTable::keepBlock's loop: the weights' keep test, for the 64
 * rows of one block, column by column into a column-major block.
 * Each column is one vector of 64 independent draws (the scalar table
 * compiles it for the build baseline, the AVX-512 table under its
 * target attribute), and no value is computed.
 */
__attribute__((always_inline)) inline void
keepBlockLoop(const std::uint64_t *keys, const std::uint64_t *belows,
              int width, std::int8_t *block)
{
    for (int c = 0; c < width; ++c)
        for (int i = 0; i < 64; ++i)
            block[c * 64 + i] = static_cast<std::int8_t>(
                (Rng::counterDraw(keys[i], static_cast<std::uint64_t>(c)) >>
                 32) < belows[i]);
}

/**
 * Field j of a take row whose fields are whole `Field`s, lanes = 8 *
 * sizeof(Field): on a little-endian build, row bits [j * lanes, (j +
 * 1) * lanes) are its bytes [j * sizeof(Field), (j + 1) *
 * sizeof(Field)).  So a block of columns is one contiguous load the
 * compiler widens, not one shift per column.
 */
template <class Field>
struct WholeFields
{
    __attribute__((always_inline)) std::uint64_t
    operator()(const std::uint64_t *row, int j) const
    {
        Field field;
        std::memcpy(&field,
                    reinterpret_cast<const unsigned char *>(row) +
                        static_cast<std::size_t>(j) * sizeof(Field),
                    sizeof field);
        return field;
    }
};

/** Field j of a take row of any lanes width (readField). */
struct AnyFields
{
    int lanes;

    __attribute__((always_inline)) std::uint64_t
    operator()(const std::uint64_t *row, int j) const
    {
        return readField(row, std::int64_t{j} * lanes, lanes);
    }
};

/** takeExtents for fields of any width, one column at a time. */
__attribute__((always_inline)) inline void
takeExtentsColumns(AnyFields read, const std::uint64_t *takes,
                   std::int64_t words, std::int64_t depth, int cols,
                   std::int64_t base, std::int64_t *lo, std::int64_t *hi)
{
    for (int j = 0; j < cols; ++j) {
        lo[j] = hi[j] = -1;
        for (std::int64_t d = depth - 1; d >= 0; --d)
            if (read(takes + d * words, j) != 0) {
                lo[j] = base + d;
                hi[j] = hi[j] < 0 ? base + d : hi[j];
            }
    }
}

/**
 * takeExtents for whole fields, a take word at a time: each word's
 * fields are tested together (adding below the top bits carries into
 * the top bit of each nonzero field), and each field of two
 * accumulator words holds its column's first and last taking row + 1.
 * Then one pass over the columns reads the accumulators' fields, a
 * contiguous load per block.  Rows + 1 must fit a field (depth <=
 * 255 does, at any width) and the accumulators hold 64 words (64
 * columns of 64 lanes), so deeper windows of 8-lane fields and wider
 * rows go column by column.
 */
template <class Field>
__attribute__((always_inline)) inline void
takeExtentsColumns(WholeFields<Field> read, const std::uint64_t *takes,
                   std::int64_t words, std::int64_t depth, int cols,
                   std::int64_t base, std::int64_t *lo, std::int64_t *hi)
{
    constexpr int kLanes = 8 * sizeof(Field);
    constexpr std::uint64_t kField = static_cast<Field>(~Field{0});
    constexpr std::uint64_t kLow = ~std::uint64_t{0} / kField;
    constexpr std::uint64_t kHigh = kLow << (kLanes - 1);
    const std::int64_t used = (std::int64_t{cols} * kLanes + 63) / 64;
    if (static_cast<std::uint64_t>(depth) > kField || used > 64)
        return takeExtentsColumns(AnyFields{kLanes}, takes, words, depth,
                                  cols, base, lo, hi);
    std::uint64_t first[64], last[64], seen[64];
    for (std::int64_t i = 0; i < used; ++i)
        first[i] = last[i] = seen[i] = 0;
    for (std::int64_t d = 0; d < depth; ++d) {
        const std::uint64_t *row = takes + d * words;
        const auto step = static_cast<std::uint64_t>(d) + 1;
        for (std::int64_t i = 0; i < used; ++i) {
            const std::uint64_t x = row[i];
            // Bit 0 of each field that has a take in this row.
            const std::uint64_t nz =
                ((((x & ~kHigh) + (kHigh - kLow)) | x) & kHigh) >>
                (kLanes - 1);
            first[i] += (nz & ~seen[i]) * step;
            seen[i] |= nz;
            last[i] = (last[i] & ~(nz * kField)) | nz * step;
        }
    }
    for (int j = 0; j < cols; ++j) {
        const auto f = static_cast<std::int64_t>(read(first, j));
        const auto l = static_cast<std::int64_t>(read(last, j));
        lo[j] = f == 0 ? -1 : base + f - 1;
        hi[j] = l == 0 ? -1 : base + l - 1;
    }
}

/**
 * liveMasks over columns [j, j + kWidth): kWidth OR reductions over
 * the rows, which the compiler keeps in vector registers.
 */
template <int kWidth, class Read>
__attribute__((always_inline)) inline void
liveMasksBlock(Read read, const std::uint64_t *takes, std::int64_t words,
               std::int64_t depth, const std::uint64_t *a,
               std::uint64_t times, int j, std::uint64_t *out)
{
    std::uint64_t acc[kWidth] = {};
    for (std::int64_t d = 0; d < depth; ++d)
        for (int t = 0; t < kWidth; ++t)
            acc[t] |= a[d] & read(takes + d * words, j + t) * times;
    for (int t = 0; t < kWidth; ++t)
        out[j + t] = acc[t];
}

/**
 * liveMasks for one field reader: whole blocks of 8 columns, whose
 * constant trip count the compiler turns into 8-wide vectors (one
 * 512-bit register of masks), then the last cols % 8 columns one at a
 * time.
 */
template <class Read>
__attribute__((always_inline)) inline void
liveMasksColumns(Read read, const std::uint64_t *takes, std::int64_t words,
                 std::int64_t depth, const std::uint64_t *a,
                 std::uint64_t times, int cols, std::uint64_t *out)
{
    int j = 0;
    for (; cols - j >= 8; j += 8)
        liveMasksBlock<8>(read, takes, words, depth, a, times, j, out);
    for (; j < cols; ++j)
        liveMasksBlock<1>(read, takes, words, depth, a, times, j, out);
}

/**
 * The field reader the tile geometry picks: whole 8-, 16-, 32- or
 * 64-bit fields on a little-endian build (the paper's K0 = 16 among
 * them), readField for any other lanes width, whose fields may be
 * narrower than a byte or straddle two words (K0 = 24).  Calls
 * body(reader).
 */
template <class Body>
__attribute__((always_inline)) inline void
withFieldReader(int lanes, Body &&body)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    switch (lanes) {
      case 8:
        return body(WholeFields<std::uint8_t>{});
      case 16:
        return body(WholeFields<std::uint16_t>{});
      case 32:
        return body(WholeFields<std::uint32_t>{});
      case 64:
        return body(WholeFields<std::uint64_t>{});
      default:
        break;
    }
#endif
    body(AnyFields{lanes});
}

/**
 * KernelTable::takeExtents's loop.  The scalar table compiles it for
 * the build baseline and the AVX-512 table under its target attribute.
 */
__attribute__((always_inline)) inline void
takeExtentsLoop(const std::uint64_t *takes, std::int64_t words,
                std::int64_t depth, int lanes, int cols, std::int64_t base,
                std::int64_t *lo, std::int64_t *hi)
{
    withFieldReader(lanes, [&](auto read) __attribute__((always_inline)) {
        takeExtentsColumns(read, takes, words, depth, cols, base, lo, hi);
    });
}

/** KernelTable::liveMasks's loop, compiled as takeExtentsLoop. */
__attribute__((always_inline)) inline void
liveMasksLoop(const std::uint64_t *takes, std::int64_t words,
              std::int64_t depth, const std::uint64_t *a, int lanes,
              int rows, int cols, std::uint64_t *out)
{
    // The field times `times` is one copy of it per row: the copies
    // never overlap, so the product carries nothing.
    std::uint64_t times = 0;
    for (int m = 0; m < rows; ++m)
        times |= std::uint64_t{1} << (m * lanes);
    withFieldReader(lanes, [&](auto read) __attribute__((always_inline)) {
        liveMasksColumns(read, takes, words, depth, a, times, cols, out);
    });
}

} // namespace detail
} // namespace simd
} // namespace griffin

#endif // GRIFFIN_SIMD_KERNELS_HH
