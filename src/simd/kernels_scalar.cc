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

#include "common/rng.hh"

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
mtTwistScalar(std::uint64_t *state)
{
    // [rand.eng.mers] with the mt19937_64 parameters (n,m,r,a): the
    // upper 33 bits of x_i joined to the lower 31 of x_{i+1}, shifted,
    // and xored with `a` when the low bit is set.  The mask -(x & 1)
    // replaces that branch, which mispredicts on half the words.  In
    // place, entry i becomes x_{i+N}, reading x_{i+M} from the
    // already-updated prefix once i + M wraps.
    constexpr int kN = 312;
    constexpr int kM = 156;
    constexpr std::uint64_t kUpper = 0xFFFFFFFF80000000ULL;
    constexpr std::uint64_t kLower = 0x7FFFFFFFULL;
    constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
    const auto twisted = [](std::uint64_t hi, std::uint64_t lo) {
        const std::uint64_t x = (hi & kUpper) | (lo & kLower);
        return (x >> 1) ^ (-(x & 1) & kMatrixA);
    };
    int i = 0;
    for (; i < kN - kM; ++i)
        state[i] = state[i + kM] ^ twisted(state[i], state[i + 1]);
    for (; i < kN - 1; ++i)
        state[i] = state[i + kM - kN] ^ twisted(state[i], state[i + 1]);
    state[kN - 1] = state[kM - 1] ^ twisted(state[kN - 1], state[0]);
}

void
andPopcountScalar(const std::uint64_t *x, const std::uint64_t *ys,
                  std::int64_t words, std::int64_t count,
                  std::int32_t *out)
{
    for (std::int64_t i = 0; i < count; ++i) {
        const std::uint64_t *y = ys + i * words;
        std::int32_t n = 0;
        for (std::int64_t w = 0; w < words; ++w)
            n += popcount64(x[w] & y[w]);
        out[i] = n;
    }
}

std::int64_t
keepDecodeScalar(const std::uint64_t *draws, std::int64_t len,
                 std::uint64_t below, bool always, std::int64_t want,
                 std::int8_t *out, std::int64_t *used)
{
    // One element per step, reading its keep draw and the draw after
    // it whether kept or not, so the step has no branch on the random
    // keep bit; only the last draw of the run is read alone.
    std::int64_t n = 0;
    std::int64_t pos = 0;
    for (; n < want && len - pos >= 2; ++n) {
        const bool kept = (draws[pos] < below) | always;
        const std::uint64_t v = draws[pos + 1];
        if (kept & (v == 0))
            break;
        out[n] = static_cast<std::int8_t>(Rng::nonzeroInt8FromDraw(v) &
                                          -static_cast<int>(kept));
        pos += 1 + static_cast<int>(kept);
    }
    // An element on the last draw finishes only when it is not kept.
    if (n < want && len - pos == 1 && !((draws[pos] < below) | always)) {
        out[n++] = 0;
        ++pos;
    }
    *used = pos;
    return n;
}

} // namespace

const KernelTable &
scalarTable()
{
    static const KernelTable table = {
        nonzeroMasksScalar, countNonzeroScalar, accumulateNonzeroScalar,
        leMaskScalar,       minI64Scalar,       mtTemperScalar,
        mtTwistScalar,      andPopcountScalar,  keepDecodeScalar,
    };
    return table;
}

} // namespace detail
} // namespace simd
} // namespace griffin
