/**
 * @file
 * AVX2 kernels: compare-to-zero + movemask turns 32 occupancy bytes
 * into 32 mask bits per instruction pair.  Functions carry the
 * target("avx2") attribute so this TU builds without a global -mavx2
 * and the choice stays a *runtime* cpuid decision — the same binary
 * runs (scalar) on pre-AVX2 hardware.  POPCNT is part of the x86-64
 * build baseline (CMakeLists.txt), so the scalar overlap-count kernel
 * this table reuses compiles to it.  The table also reuses the scalar
 * row fill (fillRows); an AVX2 copy earns its place only with a
 * measured end-to-end gain.  Where the CPU also has AVX-512
 * F/BW/VL/DQ, kernels_avx512.cc compiles the fill for AVX-512.
 *
 * Byte-exactness against kernels_scalar.cc is pinned by
 * tests/test_simd.cc; none of these kernels reads outside the ranges
 * the KernelTable contract names (tails are finished scalar, never
 * over-read).
 */

#include "simd/kernels.hh"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>
#include <limits>

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

GRIFFIN_AVX2 std::int64_t
countNonzeroAvx2(const std::int8_t *src, std::size_t len)
{
    std::int64_t n = 0;
    std::size_t i = 0;
    for (; len - i >= 32 && i < len; i += 32)
        n += __builtin_popcount(nonzeroBits32(src + i));
    for (; i < len; ++i)
        n += src[i] != 0;
    return n;
}

GRIFFIN_AVX2 void
accumulateNonzeroAvx2(const std::int8_t *src, std::size_t len,
                      std::int32_t *counts)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi8(1);
    std::size_t i = 0;
    for (; len - i >= 32 && i < len; i += 32) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        // cmpeq yields -1 on zero bytes; adding 1 leaves exactly the
        // nonzero indicator.
        const __m256i ind8 =
            _mm256_add_epi8(one, _mm256_cmpeq_epi8(v, zero));
        const __m128i lo = _mm256_castsi256_si128(ind8);
        const __m128i hi = _mm256_extracti128_si256(ind8, 1);
        const __m128i parts[4] = {lo, _mm_srli_si128(lo, 8), hi,
                                  _mm_srli_si128(hi, 8)};
        for (int q = 0; q < 4; ++q) {
            std::int32_t *dst =
                counts + i + static_cast<std::size_t>(q) * 8;
            const __m256i wide = _mm256_cvtepu8_epi32(parts[q]);
            const __m256i acc = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(dst));
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst),
                                _mm256_add_epi32(acc, wide));
        }
    }
    for (; i < len; ++i)
        counts[i] += src[i] != 0;
}

GRIFFIN_AVX2 void
leMaskAvx2(const std::int64_t *heads, std::int64_t n,
           std::int64_t horizon, std::uint64_t *out)
{
    const std::int64_t words = (n + 63) / 64;
    for (std::int64_t w = 0; w < words; ++w)
        out[w] = 0;
    const __m256i h = _mm256_set1_epi64x(horizon);
    std::int64_t s = 0;
    for (; n - s >= 4; s += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(heads + s));
        // heads <= horizon  <=>  !(heads > horizon)
        const __m256i gt = _mm256_cmpgt_epi64(v, h);
        const std::uint64_t nibble =
            ~static_cast<std::uint64_t>(
                _mm256_movemask_pd(_mm256_castsi256_pd(gt))) &
            0xFu;
        out[s >> 6] |= nibble << (s & 63);
    }
    for (; s < n; ++s)
        out[s >> 6] |= static_cast<std::uint64_t>(heads[s] <= horizon)
                       << (s & 63);
}

GRIFFIN_AVX2 std::int64_t
minI64Avx2(const std::int64_t *heads, std::int64_t n)
{
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    std::int64_t s = 0;
    if (n - s >= 4) {
        __m256i acc = _mm256_set1_epi64x(best);
        for (; n - s >= 4; s += 4) {
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(heads + s));
            // Where acc > v, take v (no native epi64 min in AVX2).
            acc = _mm256_blendv_epi8(acc, v,
                                     _mm256_cmpgt_epi64(acc, v));
        }
        alignas(32) std::int64_t lanes[4];
        _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
        for (int q = 0; q < 4; ++q)
            best = lanes[q] < best ? lanes[q] : best;
    }
    for (; s < n; ++s)
        best = heads[s] < best ? heads[s] : best;
    return best;
}

GRIFFIN_AVX2 void
mtTemperAvx2(const std::uint64_t *src, std::int64_t n,
             std::uint64_t *out)
{
    const __m256i d = _mm256_set1_epi64x(0x5555555555555555LL);
    const __m256i b = _mm256_set1_epi64x(0x71D67FFFEDA60000LL);
    const __m256i c = _mm256_set1_epi64x(
        static_cast<long long>(0xFFF7EEE000000000ULL));
    std::int64_t i = 0;
    for (; n - i >= 4; i += 4) {
        __m256i y = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        y = _mm256_xor_si256(
            y, _mm256_and_si256(_mm256_srli_epi64(y, 29), d));
        y = _mm256_xor_si256(
            y, _mm256_and_si256(_mm256_slli_epi64(y, 17), b));
        y = _mm256_xor_si256(
            y, _mm256_and_si256(_mm256_slli_epi64(y, 37), c));
        y = _mm256_xor_si256(y, _mm256_srli_epi64(y, 43));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i), y);
    }
    for (; i < n; ++i) {
        std::uint64_t y = src[i];
        y ^= (y >> 29) & 0x5555555555555555ULL;
        y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
        y ^= (y << 37) & 0xFFF7EEE000000000ULL;
        y ^= y >> 43;
        out[i] = y;
    }
}

} // namespace

const KernelTable *
avx2Table()
{
    if (!__builtin_cpu_supports("avx2"))
        return nullptr;
    static const KernelTable table = {
        nonzeroMasksAvx2,      countNonzeroAvx2, accumulateNonzeroAvx2,
        leMaskAvx2,            minI64Avx2,       mtTemperAvx2,
        scalarTable().fillRows,
    };
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
