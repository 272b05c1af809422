/**
 * @file
 * Internal seam between the dispatcher (occupancy.cc) and the backend
 * translation units.  Each backend TU exports exactly one accessor;
 * unsupported backends return nullptr so the dispatcher needs no
 * per-architecture preprocessor logic.  Below the accessors sit the
 * two loops that are written once and compiled per backend, with no
 * intrinsics: the weight generator's row fill (KernelTable::fillRows)
 * and its keep bits alone, 64 rows at a time (KernelTable::keepBlock).
 */

#ifndef GRIFFIN_SIMD_KERNELS_HH
#define GRIFFIN_SIMD_KERNELS_HH

#include <cstdint>

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
 * The AVX2 table with fillRows compiled for AVX-512, when the build
 * targets x86 and the CPU has AVX2 and AVX-512 F/BW/VL/DQ.
 */
const KernelTable *avx512Table();

/** The weights' keep test: draw h keeps its element under `below`. */
__attribute__((always_inline)) inline bool
keeps(std::uint64_t h, std::uint64_t below)
{
    return (h >> 32) < below;
}

/**
 * Element c of a fillRows row, without a branch on the keep test (the
 * scalar copy would mispredict on it).
 */
__attribute__((always_inline)) inline std::int8_t
fillElement(std::uint64_t key, std::uint64_t below, std::int64_t c)
{
    const std::uint64_t h =
        Rng::counterDraw(key, static_cast<std::uint64_t>(c));
    return static_cast<std::int8_t>(Rng::nonzeroInt8FromDraw(h << 32) &
                                    -static_cast<int>(keeps(h, below)));
}

/**
 * Columns [0, n) of one row.  Whole blocks of 64 come first: a
 * constant trip count needs no scalar epilogue, so -O2's vectorizer
 * (its very-cheap cost model) takes the block too, not only -O3's.
 */
__attribute__((always_inline)) inline void
fillRowLoop(std::uint64_t key, std::uint64_t below, std::int64_t n,
            std::int8_t *out)
{
    std::int64_t c = 0;
    for (; n - c >= 64; c += 64)
        for (int j = 0; j < 64; ++j)
            out[c + j] = fillElement(key, below, c + j);
    for (; c < n; ++c)
        out[c] = fillElement(key, below, c);
}

/**
 * KernelTable::fillRows's loop.  The scalar table compiles it for the
 * build baseline, row by row (kAcrossRows false); the AVX-512 table
 * compiles it again under a target attribute, where the compiler
 * vectorizes the 64-element blocks (the elements are independent, and
 * every step is 64-bit integer arithmetic).
 *
 * A vector of the row loop holds one row's elements, so a row narrower
 * than 64 (a 16-column tile's) never fills one: gcc fits its 16 output
 * bytes in one xmm register and computes the draws two 64-bit lanes at
 * a time, and the latency of each row's short chain of multiplies is
 * not hidden.  With kAcrossRows, the columns past the last whole
 * 64-block of each row go 64 rows at a time instead, column by column:
 * each 64-element vector holds one column of 64 rows, written to a
 * column-major block and then copied into the rows (a last block of
 * fewer than 64 rows goes row by row).  Without vectors the copy is
 * only extra work, so the scalar table does not take it.
 */
template <bool kAcrossRows>
__attribute__((always_inline)) inline void
fillRowsLoop(const std::uint64_t *keys, const std::uint64_t *belows,
             std::int64_t rows, std::int64_t n, std::int8_t *out)
{
    const std::int64_t wide = kAcrossRows ? n / 64 * 64 : n;
    alignas(64) std::int8_t block[64 * 64];
    for (std::int64_t r = 0; r < rows; r += 64) {
        const std::int64_t height = rows - r < 64 ? rows - r : 64;
        const std::int64_t row_cols = height == 64 ? wide : n;
        for (std::int64_t i = 0; i < height; ++i)
            fillRowLoop(keys[r + i], belows[r + i], row_cols,
                        out + (r + i) * n);
        if (row_cols == n)
            continue;
        for (std::int64_t c = wide; c < n; ++c)
            for (int i = 0; i < 64; ++i)
                block[(c - wide) * 64 + i] =
                    fillElement(keys[r + i], belows[r + i], c);
        for (int i = 0; i < 64; ++i)
            for (std::int64_t c = wide; c < n; ++c)
                out[(r + i) * n + c] = block[(c - wide) * 64 + i];
    }
}

/**
 * KernelTable::keepBlock's loop: fillElement's keep test alone, for
 * the 64 rows of one block, column by column into a column-major
 * block.  Each column is one vector of 64 independent draws (the
 * scalar table compiles it for the build baseline, the AVX-512 table
 * under its target attribute), and a row's value is never computed.
 */
__attribute__((always_inline)) inline void
keepBlockLoop(const std::uint64_t *keys, const std::uint64_t *belows,
              int width, std::int8_t *block)
{
    for (int c = 0; c < width; ++c)
        for (int i = 0; i < 64; ++i)
            block[c * 64 + i] = static_cast<std::int8_t>(keeps(
                Rng::counterDraw(keys[i], static_cast<std::uint64_t>(c)),
                belows[i]));
}

} // namespace detail
} // namespace simd
} // namespace griffin

#endif // GRIFFIN_SIMD_KERNELS_HH
