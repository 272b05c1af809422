#include "common/rng.hh"

#include <algorithm>

#include "common/logging.hh"
#include "simd/occupancy.hh"

namespace griffin {

Mt64::Mt64(result_type seed)
{
    // [rand.eng.mers] default seeding: x0 = seed, then the LCG-style
    // initialization mixing each word from its predecessor.
    state_[0] = seed;
    for (int i = 1; i < kN; ++i)
        state_[i] = 6364136223846793005ULL *
                        (state_[i - 1] ^ (state_[i - 1] >> 62)) +
                    static_cast<std::uint64_t>(i);
}

void
Mt64::refill()
{
    const simd::KernelTable &kern = simd::kernels();
    kern.mtTwist(state_);
    kern.mtTemper(state_, kN, out_);
    pos_ = 0;
}

Rng::Rng(std::uint64_t seed) : engine_(seed) {}

BernoulliThreshold
Rng::bernoulliThreshold(double p)
{
    // The outcome is true for a prefix of draws (file comment, point
    // 2), so bisect for the first false one, T.
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    if (bernoulliFromDraw(kMax, p))
        return {kMax, true};
    std::uint64_t lo = 0;  // every draw below lo is true
    std::uint64_t hi = kMax; // hi is false
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (bernoulliFromDraw(mid, p))
            lo = mid + 1;
        else
            hi = mid;
    }
    return {lo, false};
}

void
Rng::shuffle(std::vector<std::size_t> &v)
{
    std::shuffle(v.begin(), v.end(), engine_);
}

Rng
Rng::fork()
{
    return Rng(engine_());
}

std::uint64_t
Rng::mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 finalizer over the sum: cheap, well-mixed, and stable
    // across platforms (no std:: hashing, whose values are unspecified).
    std::uint64_t z = seed + salt + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
Rng::mixSeed(std::uint64_t seed, const std::string &salt)
{
    std::uint64_t h = mixSeed(seed, salt.size());
    for (unsigned char c : salt)
        h = mixSeed(h, c);
    return h;
}

} // namespace griffin
