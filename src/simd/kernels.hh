/**
 * @file
 * Internal seam between the dispatcher (occupancy.cc) and the backend
 * translation units.  Each backend TU exports exactly one accessor;
 * unsupported backends return nullptr so the dispatcher needs no
 * per-architecture preprocessor logic.  Below the accessors sits what
 * the x86 backends share, with no intrinsics: MT19937-64's twist
 * parameters, and the part of the draw decoder (keepDecode) that finds
 * where a chunk of decoded draws ends.
 */

#ifndef GRIFFIN_SIMD_KERNELS_HH
#define GRIFFIN_SIMD_KERNELS_HH

#include <cstdint>

#include "simd/occupancy.hh"

namespace griffin {
namespace simd {
namespace detail {

/** The portable reference kernels; always available. */
const KernelTable &scalarTable();

/** AVX2 kernels when the build targets x86 and the CPU has AVX2. */
const KernelTable *avx2Table();

/**
 * The AVX2 table with its three operand-generation kernels (mtTemper,
 * mtTwist, keepDecode) replaced by AVX-512 ones, when the build
 * targets x86 and the CPU has AVX2 and AVX-512 F/BW/VL/DQ/VBMI/VBMI2.
 */
const KernelTable *avx512Table();

/** NEON kernels when the build targets ARM with NEON. */
const KernelTable *neonTable();

/** MT19937-64's twist parameters ([rand.eng.mers]: n, m, the upper
 *  and lower masks of r = 31, and a). */
constexpr int kMtN = 312;
constexpr int kMtM = 156;
constexpr std::uint64_t kMtUpper = 0xFFFFFFFF80000000ULL;
constexpr std::uint64_t kMtLower = 0x7FFFFFFFULL;
constexpr std::uint64_t kMtMatrixA = 0xB5026F5AA96619E9ULL;

/** Bits [0, k) set, for k in [0, 64]. */
inline std::uint64_t
lowBits(int k)
{
    return k >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
}

/** Position of set bit k (counting from 0) of x; x has more than k. */
inline int
selectBit(std::uint64_t x, std::int64_t k)
{
    for (; k > 0; --k)
        x &= x - 1;
    return ctz64(x);
}

/** Where one keepDecode chunk ends; see keepChunk(). */
struct KeepChunk
{
    /** Bit j: draw j starts one of the chunk's elements. */
    std::uint64_t starts = 0;
    /** The draws [0, cut) the chunk's elements consume. */
    int cut = 0;
    /** popcount(starts), at most `left`. */
    std::int64_t count = 0;
    /** A kept element's value draw is 0 or past the draws: stop. */
    bool stop = false;
};

/**
 * The elements of one keepDecode chunk of `width` (1..64) draws that
 * begins at an element start.  Bit j of `keep` is draw j's keep test
 * (0 at and above width); bit j of `ends` is set when draw j is 0,
 * and bit `width` too when width < 64.  The chunk takes at most `left`
 * elements and stops before the first kept element whose value draw
 * is 0 or at `width`.
 */
inline KeepChunk
keepChunk(std::uint64_t keep, std::uint64_t ends, int width,
          std::int64_t left)
{
    constexpr std::uint64_t kEven = 0x5555555555555555ULL;
    // value bit j: draw j is a kept element's value draw (common/rng.hh,
    // point 4).  The carry out marks a kept element on draw 63, which
    // the next chunk restarts at.
    const std::uint64_t follows = keep << 1;
    const std::uint64_t odd = keep & ~kEven & ~follows;
    std::uint64_t sum = 0;
    const bool carry = __builtin_add_overflow(odd, keep, &sum);
    const std::uint64_t value = (kEven ^ (sum << 1)) & follows;

    const std::uint64_t bad = value & ends;
    KeepChunk chunk;
    chunk.cut = bad != 0 ? ctz64(bad) - 1 : width - carry;
    chunk.stop = bad != 0;
    chunk.starts = ~value & lowBits(chunk.cut);
    chunk.count = popcount64(chunk.starts);
    if (chunk.count > left) {
        chunk.cut = selectBit(chunk.starts, left);
        chunk.starts &= lowBits(chunk.cut);
        chunk.count = left;
    }
    return chunk;
}

} // namespace detail
} // namespace simd
} // namespace griffin

#endif // GRIFFIN_SIMD_KERNELS_HH
