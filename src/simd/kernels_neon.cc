/**
 * @file
 * NEON (AArch64) kernels.  Occupancy extraction uses vceqq + a
 * bit-select/horizontal-add narrowing to turn 16 bytes into 16 mask
 * bits; the int64 head-compare and min kernels delegate to the scalar
 * reference — they are not the bottleneck there, and the
 * byte-exactness contract is trivially kept.  So do AND-popcount,
 * whose scalar popcount64 already compiles to cnt + addv on AArch64,
 * and the row fill (fillRows): no ARM build has measured a vector one.
 *
 * Compiled to the nullptr stub everywhere else (including the x86 CI
 * fleet); tests/test_simd.cc exercises whichever backends the build
 * actually has.
 */

#include "simd/kernels.hh"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace griffin {
namespace simd {
namespace detail {

namespace {

inline std::uint32_t
nonzeroBits16Neon(const std::int8_t *p)
{
    const uint8x16_t v =
        vld1q_u8(reinterpret_cast<const std::uint8_t *>(p));
    const uint8x16_t nz = vmvnq_u8(vceqq_u8(v, vdupq_n_u8(0)));
    static const std::uint8_t kBits[16] = {1, 2, 4, 8, 16, 32, 64, 128,
                                           1, 2, 4, 8, 16, 32, 64, 128};
    const uint8x16_t sel = vandq_u8(nz, vld1q_u8(kBits));
    const std::uint32_t lo = vaddv_u8(vget_low_u8(sel));
    const std::uint32_t hi = vaddv_u8(vget_high_u8(sel));
    return lo | (hi << 8);
}

void
nonzeroMasksNeon(const std::int8_t *src, std::size_t stride, int width,
                 std::int64_t groups, std::uint64_t *out)
{
    for (std::int64_t g = 0; g < groups; ++g) {
        const std::int8_t *row = src + static_cast<std::size_t>(g) *
                                           stride;
        std::uint64_t mask = 0;
        int j = 0;
        for (; width - j >= 16; j += 16)
            mask |= static_cast<std::uint64_t>(
                        nonzeroBits16Neon(row + j))
                    << j;
        for (; j < width; ++j)
            mask |= static_cast<std::uint64_t>(row[j] != 0) << j;
        out[g] = mask;
    }
}

std::int64_t
countNonzeroNeon(const std::int8_t *src, std::size_t len)
{
    std::int64_t n = 0;
    std::size_t i = 0;
    const uint8x16_t one = vdupq_n_u8(1);
    for (; len - i >= 16; i += 16) {
        const uint8x16_t v =
            vld1q_u8(reinterpret_cast<const std::uint8_t *>(src + i));
        const uint8x16_t nz = vmvnq_u8(vceqq_u8(v, vdupq_n_u8(0)));
        n += vaddvq_u8(vandq_u8(nz, one));
    }
    for (; i < len; ++i)
        n += src[i] != 0;
    return n;
}

void
accumulateNonzeroNeon(const std::int8_t *src, std::size_t len,
                      std::int32_t *counts)
{
    const uint8x16_t one = vdupq_n_u8(1);
    std::size_t i = 0;
    for (; len - i >= 16; i += 16) {
        const uint8x16_t v =
            vld1q_u8(reinterpret_cast<const std::uint8_t *>(src + i));
        const uint8x16_t ind8 =
            vandq_u8(vmvnq_u8(vceqq_u8(v, vdupq_n_u8(0))), one);
        const uint16x8_t lo16 = vmovl_u8(vget_low_u8(ind8));
        const uint16x8_t hi16 = vmovl_u8(vget_high_u8(ind8));
        const uint32x4_t w[4] = {
            vmovl_u16(vget_low_u16(lo16)),
            vmovl_u16(vget_high_u16(lo16)),
            vmovl_u16(vget_low_u16(hi16)),
            vmovl_u16(vget_high_u16(hi16)),
        };
        for (int q = 0; q < 4; ++q) {
            std::int32_t *dst =
                counts + i + static_cast<std::size_t>(q) * 4;
            vst1q_s32(dst, vaddq_s32(vld1q_s32(dst),
                                     vreinterpretq_s32_u32(w[q])));
        }
    }
    for (; i < len; ++i)
        counts[i] += src[i] != 0;
}

} // namespace

void
mtTemperNeon(const std::uint64_t *src, std::int64_t n,
             std::uint64_t *out)
{
    const uint64x2_t d = vdupq_n_u64(0x5555555555555555ULL);
    const uint64x2_t b = vdupq_n_u64(0x71D67FFFEDA60000ULL);
    const uint64x2_t c = vdupq_n_u64(0xFFF7EEE000000000ULL);
    std::int64_t i = 0;
    for (; n - i >= 2; i += 2) {
        uint64x2_t y = vld1q_u64(src + i);
        y = veorq_u64(y, vandq_u64(vshrq_n_u64(y, 29), d));
        y = veorq_u64(y, vandq_u64(vshlq_n_u64(y, 17), b));
        y = veorq_u64(y, vandq_u64(vshlq_n_u64(y, 37), c));
        y = veorq_u64(y, vshrq_n_u64(y, 43));
        vst1q_u64(out + i, y);
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

const KernelTable *
neonTable()
{
    static const KernelTable table = {
        nonzeroMasksNeon,     countNonzeroNeon,     accumulateNonzeroNeon,
        scalarTable().leMask, scalarTable().minI64, mtTemperNeon,
        scalarTable().fillRows,
    };
    return &table;
}

} // namespace detail
} // namespace simd
} // namespace griffin

#else // non-NEON builds have no NEON backend

namespace griffin {
namespace simd {
namespace detail {

const KernelTable *
neonTable()
{
    return nullptr;
}

} // namespace detail
} // namespace simd
} // namespace griffin

#endif
