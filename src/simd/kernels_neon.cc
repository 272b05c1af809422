/**
 * @file
 * NEON (AArch64) kernels.  Occupancy extraction uses vceqq + a
 * bit-select/horizontal-add narrowing to turn 16 bytes into 16 mask
 * bits.  Every other table entry is the scalar reference's: the five
 * kernels no sweep calls (countNonzero, accumulateNonzero, leMask,
 * minI64, mtTemper), and the row fill (fillRows), of which no ARM
 * build has measured a vector copy.  AND-popcount is one plain
 * function on every backend; its popcount64 compiles to cnt + addv on
 * AArch64.
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

} // namespace

const KernelTable *
neonTable()
{
    // Only nonzeroMasks has a NEON copy; every other entry is the
    // scalar reference's (see the file comment).
    static const KernelTable table = [] {
        KernelTable t = scalarTable();
        t.nonzeroMasks = nonzeroMasksNeon;
        return t;
    }();
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
