#include "simd/occupancy.hh"

#include <algorithm>
#include <cstdlib>

#include "common/arena.hh"
#include "simd/kernels.hh"

namespace griffin {
namespace simd {

namespace {

bool
forceScalar()
{
#if defined(GRIFFIN_FORCE_SCALAR)
    return true;
#else
    // A set, non-empty, non-"0" GRIFFIN_FORCE_SCALAR pins the scalar
    // backend — the e2e dispatch test and the forced-scalar CI leg
    // both drive this knob.
    const char *env = std::getenv("GRIFFIN_FORCE_SCALAR");
    return env != nullptr && env[0] != '\0' &&
           !(env[0] == '0' && env[1] == '\0');
#endif
}

Backend
chooseBackend()
{
    if (forceScalar())
        return Backend::Scalar;
    if (detail::avx2Table() != nullptr)
        return Backend::Avx2;
    if (detail::neonTable() != nullptr)
        return Backend::Neon;
    return Backend::Scalar;
}

} // namespace

const char *
backendName(Backend backend)
{
    switch (backend) {
      case Backend::Avx2:
        return "avx2";
      case Backend::Neon:
        return "neon";
      case Backend::Scalar:
        break;
    }
    return "scalar";
}

Backend
activeBackend()
{
    static const Backend backend = chooseBackend();
    return backend;
}

const KernelTable &
kernels()
{
    static const KernelTable &table = []() -> const KernelTable & {
        switch (activeBackend()) {
          case Backend::Avx2:
            // The AVX-512 fill serves operand generation where the CPU
            // has it; the backend and its name stay "avx2".
            if (detail::avx512Table() != nullptr)
                return *detail::avx512Table();
            return *detail::avx2Table();
          case Backend::Neon:
            return *detail::neonTable();
          case Backend::Scalar:
            break;
        }
        return detail::scalarTable();
    }();
    return table;
}

const KernelTable &
scalarKernels()
{
    return detail::scalarTable();
}

const KernelTable *
avx2Kernels()
{
    return detail::avx2Table();
}

const KernelTable *
avx512Kernels()
{
    return detail::avx512Table();
}

const KernelTable *
neonKernels()
{
    return detail::neonTable();
}

void
bTileOccupancy(const MatrixI8 &b, std::int64_t col_base, int units,
               std::int64_t steps, int k0, std::uint64_t *out)
{
    GRIFFIN_ASSERT(units >= 1 && units <= 64,
                   "B occupancy needs 1..64 units, got ", units);
    GRIFFIN_ASSERT(col_base >= 0, "negative column base ", col_base);
    const std::int64_t flat = steps * k0;
    const auto rows = static_cast<std::int64_t>(b.rows());
    const auto cols = static_cast<std::int64_t>(b.cols());
    // Rows of B are contiguous along n: one masked compare per flat-k
    // row covers the whole unit axis.  The matrix edge clips the
    // width; everything past it is tile zero padding.
    const std::int64_t valid = std::min(flat, rows);
    const std::int64_t width =
        col_base < cols
            ? std::min<std::int64_t>(units, cols - col_base)
            : 0;
    if (width > 0 && valid > 0)
        kernels().nonzeroMasks(b.data() + col_base,
                               static_cast<std::size_t>(cols),
                               static_cast<int>(width), valid, out);
    for (std::int64_t r = (width > 0 ? valid : 0); r < flat; ++r)
        out[r] = 0;
}

void
aRowMasks(const MatrixI8 &a, std::int64_t row_base, std::int64_t units,
          std::int64_t words, std::uint64_t *out)
{
    GRIFFIN_ASSERT(row_base >= 0, "negative row base ", row_base);
    const auto rows = static_cast<std::int64_t>(a.rows());
    const auto cols = static_cast<std::int64_t>(a.cols());
    GRIFFIN_ASSERT(words * 64 >= cols, words, " mask words cannot cover k = ",
                   cols);
    // A rows are contiguous along k: whole 64-byte chunks, then the
    // ragged tail, one nonzeroMasks call each.
    const KernelTable &k = kernels();
    const std::int64_t full = cols / 64;
    for (std::int64_t m = 0; m < units; ++m) {
        std::uint64_t *mask = out + m * words;
        std::int64_t done = 0;
        if (row_base + m < rows) {
            const std::int8_t *row =
                a.data() + static_cast<std::size_t>(row_base + m) *
                               static_cast<std::size_t>(cols);
            if (full > 0)
                k.nonzeroMasks(row, 64, 64, full, mask);
            if (cols % 64 != 0)
                k.nonzeroMasks(row + full * 64, 0,
                               static_cast<int>(cols % 64), 1, mask + full);
            done = (cols + 63) / 64;
        }
        std::fill(mask + done, mask + words, 0);
    }
}

namespace {

/**
 * Transpose a 64 x 64 bit matrix in place when every word holds bits
 * [0, p) only, p a power of two: afterwards bit i of word j < p is bit
 * j of input word i (words p.. are left unspecified).  This is the
 * recursive transpose of Hacker's Delight (2nd ed., section 7-3),
 * whose round s swaps the off-diagonal s x s blocks of every 2s x 2s
 * block.  On such a matrix the rounds s >= p only gather — bits
 * [b * p, b * p + p) of word r come from word b * p + r — so they are
 * one pass of shifts, and rounds p/2 .. 1 run on words [0, p).
 */
void
transposeLow(std::uint64_t *words, int p)
{
    for (int r = 0; r < p; ++r)
        for (int b = p; b < 64; b += p)
            words[r] |= words[b + r] << b;
    std::uint64_t mask = 0x00000000FFFFFFFFULL;
    for (int s = 32; s != 0; s >>= 1, mask ^= mask << s) {
        if (s >= p)
            continue;
        for (int i = 0; i < p; i = ((i | s) + 1) & ~s) {
            const std::uint64_t t =
                ((words[i] >> s) ^ words[i | s]) & mask;
            words[i] ^= t << s;
            words[i | s] ^= t;
        }
    }
}

} // namespace

void
bColumnMasks(const MatrixI8 &b, std::int64_t col_base, int units,
             std::int64_t words, std::uint64_t *out)
{
    // One occupancy word per k row (bit n is column col_base + n),
    // transposed 64 rows at a time into each column's k mask.
    int p = 1;
    while (p < units)
        p *= 2;
    Arena &arena = workArena();
    ArenaScope scope(arena);
    auto *slab = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(words * 64));
    bTileOccupancy(b, col_base, units, words, 64, slab);
    for (std::int64_t w = 0; w < words; ++w) {
        std::uint64_t *block = slab + w * 64;
        transposeLow(block, p);
        for (int n = 0; n < units; ++n)
            out[n * words + w] = block[n];
    }
}

} // namespace simd
} // namespace griffin
