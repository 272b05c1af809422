/**
 * @file
 * Portable reference kernels.  Every SIMD backend must be byte-exact
 * against these (tests/test_simd.cc pins it), and GRIFFIN_FORCE_SCALAR
 * routes the whole hot path through them — so they are written for
 * clarity first, with just enough word-at-a-time help that the scalar
 * fallback stays usable on wide tiles.
 */

#include "simd/kernels.hh"

#include <limits>

namespace griffin {
namespace simd {
namespace detail {

namespace {

void
nonzeroMasksScalar(const std::int8_t *src, std::size_t stride,
                   int width, std::int64_t groups, std::uint64_t *out)
{
    for (std::int64_t g = 0; g < groups; ++g) {
        const std::int8_t *row = src + static_cast<std::size_t>(g) *
                                           stride;
        std::uint64_t mask = 0;
        for (int j = 0; j < width; ++j)
            mask |= static_cast<std::uint64_t>(row[j] != 0) << j;
        out[g] = mask;
    }
}

std::int64_t
countNonzeroScalar(const std::int8_t *src, std::size_t len)
{
    std::int64_t n = 0;
    for (std::size_t i = 0; i < len; ++i)
        n += src[i] != 0;
    return n;
}

void
accumulateNonzeroScalar(const std::int8_t *src, std::size_t len,
                        std::int32_t *counts)
{
    for (std::size_t i = 0; i < len; ++i)
        counts[i] += src[i] != 0;
}

void
leMaskScalar(const std::int64_t *heads, std::int64_t n,
             std::int64_t horizon, std::uint64_t *out)
{
    const std::int64_t words = (n + 63) / 64;
    for (std::int64_t w = 0; w < words; ++w)
        out[w] = 0;
    for (std::int64_t s = 0; s < n; ++s)
        out[s >> 6] |= static_cast<std::uint64_t>(heads[s] <= horizon)
                       << (s & 63);
}

std::int64_t
minI64Scalar(const std::int64_t *heads, std::int64_t n)
{
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (std::int64_t s = 0; s < n; ++s)
        best = heads[s] < best ? heads[s] : best;
    return best;
}

void
mtTemperScalar(const std::uint64_t *src, std::int64_t n,
               std::uint64_t *out)
{
    // [rand.eng.mers] output transformation with the mt19937_64
    // parameters (u,d,s,b,t,c,l).
    for (std::int64_t i = 0; i < n; ++i) {
        std::uint64_t y = src[i];
        y ^= (y >> 29) & 0x5555555555555555ULL;
        y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
        y ^= (y << 37) & 0xFFF7EEE000000000ULL;
        y ^= y >> 43;
        out[i] = y;
    }
}

void
keepBlockScalar(const std::uint64_t *keys, const std::uint64_t *belows,
                int width, std::int8_t *block)
{
    keepBlockLoop(keys, belows, width, block);
}

void
takeExtentsScalar(const std::uint64_t *takes, std::int64_t words,
                  std::int64_t depth, int lanes, int cols, std::int64_t base,
                  std::int64_t *lo, std::int64_t *hi)
{
    takeExtentsLoop(takes, words, depth, lanes, cols, base, lo, hi);
}

void
liveMasksScalar(const std::uint64_t *takes, std::int64_t words,
                std::int64_t depth, const std::uint64_t *a, int lanes,
                int rows, int cols, std::uint64_t *out)
{
    liveMasksLoop(takes, words, depth, a, lanes, rows, cols, out);
}

} // namespace

const KernelTable &
scalarTable()
{
    static const KernelTable table = {
        nonzeroMasksScalar, countNonzeroScalar, accumulateNonzeroScalar,
        leMaskScalar,       minI64Scalar,       mtTemperScalar,
        keepBlockScalar,    takeExtentsScalar,  liveMasksScalar,
    };
    return table;
}

} // namespace detail
} // namespace simd
} // namespace griffin
