/**
 * @file
 * AVX2 kernels: compare-to-zero + movemask turns 32 occupancy bytes
 * into 32 mask bits per instruction pair (nonzeroMasks, which every
 * scheduler's and SparTen's occupancy masks go through).  Functions
 * carry the target("avx2") attribute so this TU builds without a
 * global -mavx2 and the choice stays a *runtime* cpuid decision — the
 * same binary runs (scalar) on pre-AVX2 hardware.  POPCNT is part of
 * the x86-64 build baseline (CMakeLists.txt), so the scalar
 * overlap-count kernel compiles to it.  Every other table entry is the
 * scalar reference's: the weight generator's row fill and keep bits
 * (fillRows, keepBlock) and the B stream's take-row passes
 * (takeExtents, liveMasks), whose AVX2 copies would earn their place
 * only with a measured end-to-end gain, and the five kernels no sweep
 * calls (countNonzero, accumulateNonzero, leMask, minI64, mtTemper).
 * Where the CPU also has AVX-512 F/BW/VL/DQ, kernels_avx512.cc compiles
 * those four loops for AVX-512.
 *
 * Byte-exactness against kernels_scalar.cc is pinned by
 * tests/test_simd.cc; the kernel reads nothing outside the ranges the
 * KernelTable contract names (tails are finished scalar, never
 * over-read).
 */

#include "simd/kernels.hh"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#define GRIFFIN_AVX2 __attribute__((target("avx2")))

namespace griffin {
namespace simd {
namespace detail {

namespace {

GRIFFIN_AVX2 inline std::uint32_t
nonzeroBits32(const std::int8_t *p)
{
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    const __m256i zero = _mm256_setzero_si256();
    const __m256i eq = _mm256_cmpeq_epi8(v, zero);
    return ~static_cast<std::uint32_t>(_mm256_movemask_epi8(eq));
}

GRIFFIN_AVX2 inline std::uint32_t
nonzeroBits16(const std::int8_t *p)
{
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    const __m128i eq = _mm_cmpeq_epi8(v, _mm_setzero_si128());
    return ~static_cast<std::uint32_t>(_mm_movemask_epi8(eq)) &
           0xFFFFu;
}

GRIFFIN_AVX2 void
nonzeroMasksAvx2(const std::int8_t *src, std::size_t stride, int width,
                 std::int64_t groups, std::uint64_t *out)
{
    for (std::int64_t g = 0; g < groups; ++g) {
        const std::int8_t *row = src + static_cast<std::size_t>(g) *
                                           stride;
        std::uint64_t mask = 0;
        int j = 0;
        for (; width - j >= 32; j += 32)
            mask |= static_cast<std::uint64_t>(nonzeroBits32(row + j))
                    << j;
        if (width - j >= 16) {
            mask |= static_cast<std::uint64_t>(nonzeroBits16(row + j))
                    << j;
            j += 16;
        }
        for (; j < width; ++j)
            mask |= static_cast<std::uint64_t>(row[j] != 0) << j;
        out[g] = mask;
    }
}

} // namespace

const KernelTable *
avx2Table()
{
    if (!__builtin_cpu_supports("avx2"))
        return nullptr;
    // Only nonzeroMasks has an AVX2 copy; every other entry is the
    // scalar reference's (see the file comment).
    static const KernelTable table = [] {
        KernelTable t = scalarTable();
        t.nonzeroMasks = nonzeroMasksAvx2;
        return t;
    }();
    return &table;
}

} // namespace detail
} // namespace simd
} // namespace griffin

#else // non-x86 builds have no AVX2 backend

namespace griffin {
namespace simd {
namespace detail {

const KernelTable *
avx2Table()
{
    return nullptr;
}

} // namespace detail
} // namespace simd
} // namespace griffin

#endif
