/**
 * @file
 * Internal seam between the dispatcher (occupancy.cc) and the backend
 * translation units.  Each backend TU exports exactly one accessor;
 * unsupported backends return nullptr so the dispatcher needs no
 * per-architecture preprocessor logic.  Below the accessors sits the
 * one loop that is written once and compiled per backend, with no
 * intrinsics: the weight generator's row fill (KernelTable::fillRow).
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
 * The AVX2 table with fillRow compiled for AVX-512, when the build
 * targets x86 and the CPU has AVX2 and AVX-512 F/BW/VL/DQ.
 */
const KernelTable *avx512Table();

/** NEON kernels when the build targets ARM with NEON. */
const KernelTable *neonTable();

/**
 * fillRow's element c, without a branch on the keep test (the scalar
 * copy would mispredict on it).
 */
__attribute__((always_inline)) inline std::int8_t
fillElement(std::uint64_t key, std::uint64_t below, std::int64_t c)
{
    const std::uint64_t h =
        Rng::counterDraw(key, static_cast<std::uint64_t>(c));
    return static_cast<std::int8_t>(Rng::nonzeroInt8FromDraw(h << 32) &
                                    -static_cast<int>((h >> 32) < below));
}

/**
 * KernelTable::fillRow's loop.  The scalar table compiles it for the
 * build baseline; the AVX-512 table compiles it again under a target
 * attribute, where the compiler vectorizes it (the elements are
 * independent, and every step is 64-bit integer arithmetic).  Whole
 * blocks of 64 come first: a constant trip count needs no scalar
 * epilogue, so -O2's vectorizer (its very-cheap cost model) takes the
 * block too, not only -O3's.
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

} // namespace detail
} // namespace simd
} // namespace griffin

#endif // GRIFFIN_SIMD_KERNELS_HH
