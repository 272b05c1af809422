/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic choice in the library (synthetic sparsity masks,
 * tile sampling phases, test tensors) flows through Rng so that runs
 * are exactly reproducible from a single seed.
 *
 * Operand generation draws one or two values per matrix element, so
 * the engine and the per-element draws are written without branches
 * on random bits.  Each rewrite keeps every value of the historical
 * std::mt19937_64 + libstdc++ distribution path, for four reasons:
 *
 *  1. Twist recurrence.  [rand.eng.mers] defines x_{i+n} from x_i,
 *     x_{i+1} and x_{i+m} only (n = 312, m = 156), so a refill can
 *     twist four words at a time on AVX2 and eight on AVX-512
 *     (simd::KernelTable::mtTwist) and temper the whole block
 *     (mtTemper).  The conditional xor with `a` becomes a mask of the
 *     low bit.
 *  2. Threshold monotonicity.  bernoulli(p) is uniform01() < p, and
 *     uniform01() is a non-decreasing function of the raw 64-bit draw
 *     u (u64 -> double rounding, an exact power-of-two scale and a
 *     clamp are each monotone).  So the outcome is u < T for one
 *     integer T in [0, 2^64], which bernoulliThreshold() finds by
 *     bisecting the predicate itself.
 *  3. Range-255 multiply-shift.  uniform_int_distribution(-128, 126)
 *     over a 64-bit engine is Lemire's method (ACM TOMACS 2019) in
 *     libstdc++: value (u * 255) >> 64, rejecting u only when the low
 *     product word is below 2^64 mod 255 = 1, i.e. only u = 0.
 *     nonzeroInt8FromDraw() is that map with the zero skipped.
 *  4. Keep/value roles.  A lane-biased weight element takes a keep
 *     draw and, when kept, a value draw, so with K the keep bits of a
 *     run of draws, the draws S that start an element obey
 *     S[j+1] = !(S[j] & K[j]).  Over a 64-draw word this is the
 *     odd-run escape scan of simdjson (Langdale & Lemire, VLDB J.
 *     2019), with carry = 1 when the word's first draw is a value
 *     draw and EVEN = 0x5555...:
 *         K &= ~carry;  follows = K << 1 | carry;
 *         odd = K & ~EVEN & ~follows;
 *         V = (EVEN ^ ((odd + K) << 1)) & follows;
 *     V marks the value draws (S = ~V) and the overflow of odd + K is
 *     the next word's carry.  simd::KernelTable::keepDecode restarts
 *     each word at an element start, so its carry in is 0 and its
 *     carry out marks a kept element on the word's last draw.  The
 *     AVX2 kernel writes each kept value byte at the popcount rank of
 *     its element's start; the AVX-512 kernel computes the value
 *     bytes of all 64 draws, moves each down one draw onto its keep
 *     draw, zeroes the elements not kept and packs the bytes of the
 *     starts S into element order with a byte compress (vpcompressb).
 *
 * tests/test_rng.cc and tests/test_sparsity.cc pin the first three
 * against the std engine, the std distribution and the per-draw
 * generators; tests/test_simd.cc pins the fourth against a decoder
 * that takes one element at a time.
 */

#ifndef GRIFFIN_COMMON_RNG_HH
#define GRIFFIN_COMMON_RNG_HH

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace griffin {

/**
 * MT19937-64 with block-buffered output: a refill twists all 312
 * state words and tempers them into an output block, both through the
 * SIMD kernel table (simd/occupancy.hh).  Every value is bit-identical
 * to std::mt19937_64 from the same seed ([rand.eng.mers] specifies the
 * generator exactly; tests/test_rng.cc pins the equivalence), so
 * historical baselines are unaffected.
 *
 * Satisfies UniformRandomBitGenerator with the same result_type and
 * range as std::mt19937_64, so the std distributions over it follow
 * the exact same value path.
 */
class Mt64
{
  public:
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** Draws per refill block. */
    static constexpr int kN = 312;

    explicit Mt64(result_type seed);

    result_type
    operator()()
    {
        if (pos_ >= kN)
            refill();
        return out_[pos_++];
    }

    /**
     * In-place access for loops that consume draws in bulk: the next
     * kN - pos() values operator() would return are block()[pos()] ..
     * block()[kN - 1], in order, and consume(n) takes n of them as if
     * drawn.  Past the block end, operator() refills as usual.
     */
    const std::uint64_t *block() const { return out_; }
    int pos() const { return pos_; }

    /** Take the next n buffered draws; n must not pass the block end. */
    void
    consume(int n)
    {
        GRIFFIN_ASSERT(n >= 0 && n <= kN - pos_, "consume(", n,
                       ") with ", kN - pos_, " draws left in the block");
        pos_ += n;
    }

  private:
    void refill();

    std::uint64_t state_[kN];
    std::uint64_t out_[kN];
    int pos_ = kN;
};

/**
 * Rng::bernoulli(p) as an integer compare on the raw engine draw u:
 * true iff u < below, or for every u when `always` (p >= 1, where the
 * bound would be 2^64).
 */
struct BernoulliThreshold
{
    std::uint64_t below = 0;
    bool always = false;

    bool
    operator()(std::uint64_t u) const
    {
        return (u < below) | always;
    }
};

/**
 * A seeded mt19937_64 with the handful of draws the library needs.
 *
 * Not thread-safe; create one per thread of work.
 */
class Rng
{
  public:
    /** Library-wide default seed: reproducible out of the box. */
    static constexpr std::uint64_t defaultSeed = 0x5eed'061f'f100'2022ULL;

    explicit Rng(std::uint64_t seed);
    Rng() : Rng(defaultSeed) {}

    // The per-value draws are defined inline: operand generation calls
    // them once per matrix element, and the out-of-line versions spent
    // more time on call overhead than in the engine.  The value sequence
    // from a given seed is bit-identical to the historical std
    // distributions over std::mt19937_64 (see the file comment).

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
    double uniform01() { return unitFromDraw(engine_()); }

    /** Bernoulli trial: true with probability p (clamped to [0,1]). */
    bool bernoulli(double p) { return bernoulliFromDraw(engine_(), p); }

    /** bernoulli(p) for t = bernoulliThreshold(p), one compare. */
    bool bernoulli(const BernoulliThreshold &t) { return t(engine_()); }

    /** bernoulli(p)'s outcome for the raw engine draw `u`. */
    static bool
    bernoulliFromDraw(std::uint64_t u, double p)
    {
        return unitFromDraw(u) < std::clamp(p, 0.0, 1.0);
    }

    /**
     * The integer form of bernoulli(p): threshold(u) ==
     * bernoulliFromDraw(u, p) for every draw u.  Costs a 64-step
     * bisection, so compute it once per distinct p.
     */
    static BernoulliThreshold bernoulliThreshold(double p);

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
     * nonzeroInt8()'s value for an accepted raw draw `u` (any u but
     * 0): h = (u * 255) >> 64 in [0, 254] is uniformInt(-128, 126)'s
     * value plus 128, and h >= 128 steps over the zero so all 255
     * nonzero values stay equally likely.
     */
    static std::int8_t
    nonzeroInt8FromDraw(std::uint64_t u)
    {
        using U128 = unsigned __int128;
        const auto h = static_cast<int>((U128{u} * 255) >> 64);
        return static_cast<std::int8_t>(h - 128 + (h >= 128));
    }

    /** Fisher-Yates shuffle of an index vector. */
    void shuffle(std::vector<std::size_t> &v);

    /** The engine, for loops that walk its buffered block in place. */
    Mt64 &engine() { return engine_; }

    /**
     * Derive an independent child generator.  Used to give each layer
     * or tile its own stream so results do not depend on visit order.
     */
    Rng fork();

    /**
     * Deterministically fold `salt` into `seed` (splitmix64 finalizer).
     * Order-independent layer seeding for the parallel runner flows
     * through this, so derived streams never depend on which thread
     * asked first.
     */
    static std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

    /** mixSeed over every byte of a string salt. */
    static std::uint64_t mixSeed(std::uint64_t seed,
                                 const std::string &salt);

  private:
    /** uniform01()'s value for the raw engine draw `u`. */
    static double
    unitFromDraw(std::uint64_t u)
    {
        // Explicit canonical form: one engine draw scaled by 2^-64,
        // clamped below one where the 53-bit rounding of the largest
        // draws lands on 1.0.  This is bit-identical to the
        // libstdc++ uniform_real_distribution(0,1) over mt19937_64
        // that produced every existing baseline, but skips the
        // generate_canonical long-double path.
        const double r = static_cast<double>(u) * 0x1p-64;
        return r < 1.0 ? r : 0x1.fffffffffffffp-1;
    }

    Mt64 engine_;
};

} // namespace griffin

#endif // GRIFFIN_COMMON_RNG_HH
