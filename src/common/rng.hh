/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic choice in the library (synthetic sparsity masks,
 * tile sampling phases, test tensors) flows through this header so
 * that runs are exactly reproducible from a single seed.  There are
 * two kinds of stream:
 *
 *  1. Sequential: Rng, a seeded std::mt19937_64 ([rand.eng.mers]
 *     specifies its values exactly) with the handful of draws the
 *     library needs.  Tile sampling and randomSparse draw from it.
 *  2. Counter-based (Salmon et al., SC'11, "Parallel Random Numbers:
 *     As Easy as 1, 2, 3"): Rng::counterDraw(key, i) is a pure
 *     function of its arguments, splitmix64's output i from state
 *     `key` (Steele, Lea & Flood, OOPSLA 2014).  The operand
 *     generators draw element (r, c) as counterDraw(mixSeed(seed, r),
 *     c), so an element needs no other element's draws.
 *
 * The per-value maps keep every value of the historical std
 * distribution path over std::mt19937_64:
 *
 *  - uniform01() is one draw u scaled by 2^-64 and clamped below 1,
 *    libstdc++'s uniform_real_distribution(0, 1) over a 64-bit engine;
 *  - nonzeroInt8() is uniform_int_distribution(-128, 126), which over
 *    a 64-bit engine is Lemire's method (ACM TOMACS 2019) in
 *    libstdc++: value (u * 255) >> 64, rejecting u only when the low
 *    product word is below 2^64 mod 255 = 1, i.e. only u = 0, with the
 *    zero skipped.
 *
 * tests/test_rng.cc pins both against the std distributions.
 */

#ifndef GRIFFIN_COMMON_RNG_HH
#define GRIFFIN_COMMON_RNG_HH

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>

#include "common/logging.hh"

namespace griffin {

/**
 * A seeded mt19937_64 with the handful of draws the library needs,
 * and the stateless seed mixing and counter-based draws.
 *
 * Not thread-safe; create one per thread of work.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /** Uniform integer in [lo, hi] inclusive.  Requires lo <= hi. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        GRIFFIN_ASSERT(lo <= hi, "uniformInt with lo ", lo, " > hi ",
                       hi);
        std::uniform_int_distribution<std::int64_t> dist(lo, hi);
        return dist(engine_);
    }

    /** Uniform double in [0, 1). */
    double
    uniform01()
    {
        // One engine draw scaled by 2^-64, clamped below one where the
        // 53-bit rounding of the largest draws lands on 1.0: libstdc++'s
        // uniform_real_distribution(0, 1) over mt19937_64 without its
        // generate_canonical long-double path.
        const double r = static_cast<double>(engine_()) * 0x1p-64;
        return r < 1.0 ? r : 0x1.fffffffffffffp-1;
    }

    /** Bernoulli trial: true with probability p (clamped to [0,1]). */
    bool bernoulli(double p) { return uniform01() < std::clamp(p, 0.0, 1.0); }

    /**
     * Nonzero INT8 value, uniform over [-128,127] \ {0}.  Used when a
     * position must be effectual by construction.
     */
    std::int8_t
    nonzeroInt8()
    {
        // The draw path of uniformInt(-128, 126): only a zero draw is
        // rejected (see the file comment).
        std::uint64_t u = engine_();
        while (u == 0)
            u = engine_();
        return nonzeroInt8FromDraw(u);
    }

    /**
     * The nonzero INT8 value of a 64-bit word `u`: h = (u * 255) >> 64
     * in [0, 254] is uniformInt(-128, 126)'s value plus 128, and
     * h >= 128 steps over the zero.  Any u is allowed; u = 0 maps to
     * -128.  Only nonzeroInt8() rejects u = 0, which keeps it on the
     * std distribution's path with all 255 values equally likely.  The
     * operand generators pass a 32-bit draw shifted up (h << 32), so
     * their 255 values are equally likely only to within 2^-32.
     */
    static std::int8_t
    nonzeroInt8FromDraw(std::uint64_t u)
    {
        // The 128-bit product's high word in 64-bit arithmetic, so the
        // operand generators' loops vectorize: with u = hi * 2^32 + lo,
        // (u * 255) >> 64 = (hi * 255 + ((lo * 255) >> 32)) >> 32, and
        // neither sum can overflow.
        const std::uint64_t lo = (u & 0xFFFFFFFFu) * 255;
        const auto h = static_cast<int>(((u >> 32) * 255 + (lo >> 32)) >>
                                        32);
        return static_cast<std::int8_t>(h - 128 + (h >= 128));
    }

    /**
     * Deterministically fold `salt` into `seed`: splitmix64's output
     * mix over the sum, cheap, well mixed and stable across platforms
     * (no std:: hashing, whose values are unspecified).  Order-
     * independent layer seeding for the parallel runner flows through
     * this, so derived streams never depend on which thread asked
     * first.
     */
    static std::uint64_t
    mixSeed(std::uint64_t seed, std::uint64_t salt)
    {
        std::uint64_t z = seed + salt + kGamma;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** mixSeed over every byte of a string salt. */
    static std::uint64_t mixSeed(std::uint64_t seed,
                                 const std::string &salt);

    /**
     * Draw `i` of the counter-based stream `key`: splitmix64's output
     * i (counting from 0) from state `key`, whose state advances by
     * kGamma per output.  A pure function of (key, i), wrapping mod
     * 2^64.
     */
    static std::uint64_t
    counterDraw(std::uint64_t key, std::uint64_t i)
    {
        return mixSeed(key, i * kGamma);
    }

    /**
     * The key of stream `key` advanced past its first `n` draws:
     * counterDraw(counterSkip(key, n), i) == counterDraw(key, n + i),
     * mod 2^64.  The weight generator starts a row at its column
     * tile's first column with it.
     */
    static std::uint64_t
    counterSkip(std::uint64_t key, std::uint64_t n)
    {
        return key + n * kGamma;
    }

  private:
    /** splitmix64's state increment, 2^64 / golden ratio (odd). */
    static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

    std::mt19937_64 engine_;
};

} // namespace griffin

#endif // GRIFFIN_COMMON_RNG_HH
