/**
 * @file
 * AVX-512 operand-generation kernels: the MT19937-64 refill (mtTwist,
 * mtTemper) eight words per step, and the weight generator's draw
 * decoder (keepDecode), which computes the value byte of all 64 draws
 * of a chunk at once and packs the kept ones into element order with
 * a byte compress.  The table is the AVX2 table with these three
 * entries replaced; dispatch (occupancy.cc) prefers it when the CPU
 * reports AVX-512 F/BW/VL/DQ/VBMI/VBMI2.
 *
 * As in kernels_avx2.cc, functions carry a target attribute, so the
 * choice stays a runtime cpuid decision.  Shifts, the qword-to-byte
 * narrowing and the 256-bit insert use the _mm512_maskz_* forms with a
 * full mask: gcc 12's unmasked forms pass an undefined vector to their
 * builtins and warn (-Wuninitialized, -Wmaybe-uninitialized).
 *
 * Byte-exactness against kernels_scalar.cc is pinned by
 * tests/test_simd.cc.  Loads and stores are masked to the ranges the
 * KernelTable contract names.
 */

#include "simd/kernels.hh"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>
#include <algorithm>

#define GRIFFIN_AVX512                                                  \
    __attribute__((target("avx2,avx512f,avx512bw,avx512vl,avx512dq,"   \
                          "avx512vbmi,avx512vbmi2")))

namespace griffin {
namespace simd {
namespace detail {

namespace {

constexpr __mmask8 kAll8 = 0xFF;

/** MT19937-64 tempering ([rand.eng.mers]) of eight words. */
GRIFFIN_AVX512 inline __m512i
temper8(__m512i y)
{
    const __m512i d = _mm512_set1_epi64(0x5555555555555555LL);
    const __m512i b = _mm512_set1_epi64(0x71D67FFFEDA60000LL);
    const __m512i c = _mm512_set1_epi64(
        static_cast<long long>(0xFFF7EEE000000000ULL));
    y = _mm512_xor_si512(
        y, _mm512_and_si512(_mm512_maskz_srli_epi64(kAll8, y, 29), d));
    y = _mm512_xor_si512(
        y, _mm512_and_si512(_mm512_maskz_slli_epi64(kAll8, y, 17), b));
    y = _mm512_xor_si512(
        y, _mm512_and_si512(_mm512_maskz_slli_epi64(kAll8, y, 37), c));
    return _mm512_xor_si512(y, _mm512_maskz_srli_epi64(kAll8, y, 43));
}

GRIFFIN_AVX512 void
mtTemperAvx512(const std::uint64_t *src, std::int64_t n,
               std::uint64_t *out)
{
    std::int64_t i = 0;
    for (; n - i >= 8; i += 8)
        _mm512_storeu_si512(out + i,
                            temper8(_mm512_loadu_si512(src + i)));
    if (i < n) {
        const auto tail = static_cast<__mmask8>((1u << (n - i)) - 1);
        _mm512_mask_storeu_epi64(
            out + i, tail,
            temper8(_mm512_maskz_loadu_epi64(tail, src + i)));
    }
}

/**
 * Eight words of the [rand.eng.mers] recurrence: lane l becomes
 * far[l] ^ twist(hi[l], lo[l]), where hi holds x_i, lo x_{i+1} and
 * far x_{i+M}.
 */
GRIFFIN_AVX512 inline __m512i
twist8(__m512i hi, __m512i lo, __m512i far)
{
    const __m512i x = _mm512_or_si512(
        _mm512_and_si512(hi, _mm512_set1_epi64(
                                 static_cast<long long>(kMtUpper))),
        _mm512_and_si512(lo, _mm512_set1_epi64(kMtLower)));
    const __m512i y = _mm512_maskz_srli_epi64(kAll8, x, 1);
    // The lanes whose x is odd also xor in the matrix a.
    const __mmask8 odd = _mm512_test_epi64_mask(x, _mm512_set1_epi64(1));
    const __m512i matrix =
        _mm512_set1_epi64(static_cast<long long>(kMtMatrixA));
    return _mm512_xor_si512(far, _mm512_mask_xor_epi64(y, odd, y, matrix));
}

/** state[i..i+8) becomes twist8 of itself, the next words and far. */
GRIFFIN_AVX512 inline void
twistAt(std::uint64_t *state, int i, __m512i lo, __m512i far)
{
    _mm512_storeu_si512(
        state + i, twist8(_mm512_loadu_si512(state + i), lo, far));
}

GRIFFIN_AVX512 void
mtTwistAvx512(std::uint64_t *state)
{
    // Eight words per step, each reading words i..i+8 before any of
    // them is rewritten.  Words below N-M read x_{i+M} not yet
    // updated, the rest the updated x_{i+M-N}.  N-M = 156 is not a
    // multiple of eight, so the step at 152 takes its first four far
    // words from the old top of the block (308..311) and its last four
    // from the new bottom (0..3); in the last step, word N-1 reads the
    // new state[0] as its x_{i+1}.
    int i = 0;
    for (; i < 152; i += 8)
        twistAt(state, i, _mm512_loadu_si512(state + i + 1),
                _mm512_loadu_si512(state + i + kMtM));
    twistAt(state, i, _mm512_loadu_si512(state + i + 1),
            _mm512_maskz_inserti64x4(
                kAll8,
                _mm512_castsi256_si512(_mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(state + 308))),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(state)),
                1));
    for (i += 8; i < kMtN - 8; i += 8)
        twistAt(state, i, _mm512_loadu_si512(state + i + 1),
                _mm512_loadu_si512(state + i + kMtM - kMtN));
    twistAt(state, i,
            _mm512_mask_loadu_epi64(
                _mm512_set1_epi64(static_cast<long long>(state[0])),
                0x7F, state + i + 1),
            _mm512_loadu_si512(state + i + kMtM - kMtN));
}

GRIFFIN_AVX512 std::int64_t
keepDecodeAvx512(const std::uint64_t *draws, std::int64_t len,
                 std::uint64_t below, bool always, std::int64_t want,
                 std::int8_t *out, std::int64_t *used)
{
    const __m512i bound = _mm512_set1_epi64(static_cast<long long>(below));
    const __m512i one8 = _mm512_set1_epi8(1);
    const __m512i flip = _mm512_set1_epi8(static_cast<char>(0x80));
    // Byte j is j + 1 (vpermb reads six index bits, so 64 is 0): a
    // permute by it moves each draw's byte down one draw.
    const __m512i next = _mm512_set_epi64(
        0x403F3E3D3C3B3A39LL, 0x3837363534333231LL, 0x302F2E2D2C2B2A29LL,
        0x2827262524232221LL, 0x201F1E1D1C1B1A19LL, 0x1817161514131211LL,
        0x100F0E0D0C0B0A09LL, 0x0807060504030201LL);
    std::int64_t n = 0;
    std::int64_t pos = 0;
    // Each chunk starts where keepChunk cut the last one: at an
    // element start.
    while (n < want && pos < len) {
        const std::int64_t left = want - n;
        const int width = static_cast<int>(std::min<std::int64_t>(
            {64, len - pos, left > 32 ? 64 : 2 * left}));
        const std::uint64_t *u = draws + pos;
        const std::uint64_t live = lowBits(width);
        // Per draw: the keep test, a zero test, and the top byte and
        // borrow of the value map's h = (u * 255) >> 64 = (u >> 56) -
        // ((u << 8) < u), which Rng::nonzeroInt8FromDraw computes with
        // a 128-bit product.
        std::uint64_t keep = 0;
        std::uint64_t zeros = 0;
        std::uint64_t borrow = 0;
        __m128i top[8];
        for (int g = 0; g < 8; ++g) {
            // A group past the draws loads no lane, but its address
            // must still point into them.
            const auto lanes = static_cast<__mmask8>(live >> (8 * g));
            const __m512i v = _mm512_maskz_loadu_epi64(
                lanes, u + std::min(8 * g, width - 1));
            keep |= std::uint64_t{_mm512_mask_cmplt_epu64_mask(lanes, v,
                                                                bound)}
                    << (8 * g);
            zeros |= std::uint64_t{_mm512_mask_testn_epi64_mask(lanes, v,
                                                                v)}
                     << (8 * g);
            borrow |= std::uint64_t{_mm512_cmplt_epu64_mask(
                          _mm512_maskz_slli_epi64(kAll8, v, 8), v)}
                      << (8 * g);
            top[g] = _mm512_maskz_cvtepi64_epi8(
                kAll8, _mm512_maskz_srli_epi64(kAll8, v, 56));
        }
        if (always)
            keep = live;
        // live + 1 is bit `width`, or 0 when width is 64.
        const KeepChunk chunk =
            keepChunk(keep, zeros | (live + 1), width, left);

        // Draw j's value byte: h - 128, plus 1 from h = 128 up, to step
        // over the zero.
        const __m512i tops = _mm512_maskz_inserti64x4(
            kAll8,
            _mm512_castsi256_si512(_mm256_set_m128i(
                _mm_unpacklo_epi64(top[2], top[3]),
                _mm_unpacklo_epi64(top[0], top[1]))),
            _mm256_set_m128i(_mm_unpacklo_epi64(top[6], top[7]),
                             _mm_unpacklo_epi64(top[4], top[5])),
            1);
        const __m512i h = _mm512_mask_sub_epi8(tops, borrow, tops, one8);
        const __m512i centred = _mm512_xor_si512(h, flip);
        const __m512i bytes = _mm512_mask_add_epi8(
            centred, _mm512_cmpge_epu8_mask(h, flip), centred, one8);
        // Each element's byte sits at its start: its value draw's byte
        // shifted down one draw when kept, 0 when not.  The compress
        // packs the starts into element order, and the store writes
        // exactly the chunk's elements.
        const __m512i at_start =
            _mm512_maskz_permutexvar_epi8(keep, next, bytes);
        _mm512_mask_storeu_epi8(
            out + n, lowBits(static_cast<int>(chunk.count)),
            _mm512_maskz_compress_epi8(chunk.starts, at_start));
        n += chunk.count;
        pos += chunk.cut;
        if (chunk.stop)
            break;
    }
    *used = pos;
    return n;
}

bool
hasAvx512()
{
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vl") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512vbmi") &&
           __builtin_cpu_supports("avx512vbmi2");
}

} // namespace

const KernelTable *
avx512Table()
{
    const KernelTable *avx2 = avx2Table();
    if (avx2 == nullptr || !hasAvx512())
        return nullptr;
    static const KernelTable table = [avx2] {
        KernelTable t = *avx2;
        t.mtTemper = mtTemperAvx512;
        t.mtTwist = mtTwistAvx512;
        t.keepDecode = keepDecodeAvx512;
        return t;
    }();
    return &table;
}

} // namespace detail
} // namespace simd
} // namespace griffin

#else // non-x86 builds have no AVX-512 backend

namespace griffin {
namespace simd {
namespace detail {

const KernelTable *
avx512Table()
{
    return nullptr;
}

} // namespace detail
} // namespace simd
} // namespace griffin

#endif
