/**
 * @file
 * Tests for deterministic random number generation.
 */

#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"

namespace griffin {
namespace {

constexpr std::uint64_t kMaxDraw = ~std::uint64_t{0};

const std::uint64_t kSeeds[] = {0, 1, Rng::defaultSeed, kMaxDraw};

TEST(Mt64, BitIdenticalToStdMt19937_64)
{
    // The block-buffered engine (SIMD twist and temper) must reproduce
    // std::mt19937_64 exactly — [rand.eng.mers] pins both — across
    // thousands of refill boundaries (312 words each) and several
    // seeds.  Every historical baseline byte rests on this equivalence.
    constexpr int kDraws = 1 << 20;
    for (const std::uint64_t seed : kSeeds) {
        std::mt19937_64 ref(seed);
        Mt64 engine(seed);
        for (int i = 0; i < kDraws; ++i) {
            const std::uint64_t got = engine();
            const std::uint64_t want = ref();
            if (got != want) {
                ADD_FAILURE() << "seed " << seed << " draw " << i << ": "
                              << got << " != " << want;
                break;
            }
        }
    }
}

TEST(Mt64, BlockAccessMatchesDrawOrder)
{
    // block()[pos()..kN) are the next draws; consume(n) takes n of
    // them exactly as n calls would.
    Mt64 bulk(7), ref(7);
    bulk();
    ref();
    ASSERT_EQ(bulk.pos(), 1);
    const std::uint64_t *block = bulk.block();
    for (int i = bulk.pos(); i < Mt64::kN; ++i)
        EXPECT_EQ(block[i], ref());
    bulk.consume(Mt64::kN - bulk.pos());
    EXPECT_EQ(bulk(), ref()); // refills past the block end
}

TEST(Mt64DeathTest, ConsumePastTheBlockEndIsFatal)
{
    // An overrun would make the next draw refill early and shift the
    // rest of the stream; it must die instead.
    Mt64 engine(7);
    engine();
    EXPECT_DEATH(engine.consume(Mt64::kN - engine.pos() + 1),
                 "draws left in the block");
    EXPECT_DEATH(engine.consume(-1), "draws left in the block");
    engine.consume(Mt64::kN - engine.pos());
    EXPECT_DEATH(engine.consume(1), "draws left in the block");
}

/** A UniformRandomBitGenerator replaying a fixed list of draws. */
struct ScriptedEngine
{
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return kMaxDraw; }

    std::vector<std::uint64_t> draws;
    std::size_t used = 0;

    result_type operator()() { return draws.at(used++); }
};

/** The historical nonzeroInt8: uniformInt(-128, 126), zero skipped. */
template <typename Engine>
int
stdNonzeroInt8(Engine &engine)
{
    std::uniform_int_distribution<std::int64_t> dist(-128, 126);
    const std::int64_t v = dist(engine);
    return static_cast<int>(v >= 0 ? v + 1 : v);
}

TEST(Rng, NonzeroInt8ValueMapMatchesUniformIntOnEdgeDraws)
{
    // Draw 0 is the only rejection: the distribution moves on to the
    // next draw, as nonzeroInt8() does.
    ScriptedEngine rejected{{0, 1}};
    EXPECT_EQ(stdNonzeroInt8(rejected), Rng::nonzeroInt8FromDraw(1));
    EXPECT_EQ(rejected.used, 2u);

    // The ends of the range, plus both sides of every step: (u * 255)
    // >> 64 reaches h at the first u with u * 255 >= h * 2^64.
    using U128 = unsigned __int128;
    std::vector<std::uint64_t> edges = {1, 2, kMaxDraw - 1, kMaxDraw};
    for (int h = 1; h < 255; ++h) {
        const auto first = static_cast<std::uint64_t>(
            ((U128{static_cast<std::uint64_t>(h)} << 64) + 254) / 255);
        edges.push_back(first - 1);
        edges.push_back(first);
    }
    for (const std::uint64_t u : edges) {
        ScriptedEngine one{{u}};
        EXPECT_EQ(stdNonzeroInt8(one), Rng::nonzeroInt8FromDraw(u))
            << "draw " << u;
        EXPECT_EQ(one.used, 1u) << "draw " << u << " was rejected";
    }
    EXPECT_EQ(Rng::nonzeroInt8FromDraw(1), -128);
    EXPECT_EQ(Rng::nonzeroInt8FromDraw(kMaxDraw), 127);
    // The -1 -> +1 crossing is edges[4 + 2 * 127 + {0, 1}].
    EXPECT_EQ(Rng::nonzeroInt8FromDraw(edges[4 + 2 * 127]), -1);
    EXPECT_EQ(Rng::nonzeroInt8FromDraw(edges[4 + 2 * 127 + 1]), 1);
}

TEST(Rng, NonzeroInt8MatchesUniformIntDistribution)
{
    // The multiply-shift form must follow the std distribution over
    // the same engine draw for draw, including how many draws it takes.
    constexpr int kDraws = 1 << 20;
    for (const std::uint64_t seed : kSeeds) {
        Rng rng(seed);
        Mt64 engine(seed);
        for (int i = 0; i < kDraws; ++i) {
            const int got = rng.nonzeroInt8();
            const int want = stdNonzeroInt8(engine);
            if (got != want) {
                ADD_FAILURE() << "seed " << seed << " draw " << i << ": "
                              << got << " != " << want;
                break;
            }
        }
        EXPECT_EQ(rng.engine()(), engine()) << "seed " << seed;
    }
}

/** Threshold vs bernoulli at the bisection edge and at the ends. */
void
expectThresholdEdges(double p)
{
    const BernoulliThreshold t = Rng::bernoulliThreshold(p);
    for (const std::uint64_t u : {std::uint64_t{0}, kMaxDraw})
        EXPECT_EQ(t(u), Rng::bernoulliFromDraw(u, p))
            << "p " << p << " draw " << u;
    if (t.always)
        return;
    EXPECT_FALSE(Rng::bernoulliFromDraw(t.below, p)) << "p " << p;
    EXPECT_FALSE(t(t.below)) << "p " << p;
    if (t.below > 0) {
        EXPECT_TRUE(Rng::bernoulliFromDraw(t.below - 1, p)) << "p " << p;
        EXPECT_TRUE(t(t.below - 1)) << "p " << p;
    }
}

/** Threshold vs Rng::bernoulli(p) over `draws` engine draws. */
void
expectThresholdStream(double p, std::uint64_t seed, int draws)
{
    const BernoulliThreshold t = Rng::bernoulliThreshold(p);
    Rng rng(seed);
    Mt64 engine(seed);
    for (int i = 0; i < draws; ++i) {
        const std::uint64_t u = engine();
        if (t(u) != rng.bernoulli(p)) {
            ADD_FAILURE() << "p " << p << " seed " << seed << " draw "
                          << i << " (" << u << ")";
            return;
        }
    }
}

TEST(Rng, BernoulliThresholdAgreesWithBernoulli)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double special[] = {-1.0, 0.0, 0x1p-64, 0.5, 5.0 / 6.0,
                              std::nextafter(1.0, 0.0), 1.0, 2.0, nan};
    for (const double p : special) {
        expectThresholdEdges(p);
        expectThresholdStream(p, Rng::defaultSeed, 1 << 20);
    }
    // Known bounds: p <= 0 and NaN never succeed, p >= 1 always does,
    // 2^-64 succeeds on draw 0 only, and 0.5 stops where the u64 ->
    // double rounding reaches 2^63 (ties to even round 2^63 - 2^9 up).
    EXPECT_EQ(Rng::bernoulliThreshold(-1.0).below, 0u);
    EXPECT_FALSE(Rng::bernoulliThreshold(0.0).always);
    EXPECT_EQ(Rng::bernoulliThreshold(0.0).below, 0u);
    EXPECT_EQ(Rng::bernoulliThreshold(nan).below, 0u);
    EXPECT_FALSE(Rng::bernoulliThreshold(nan).always);
    EXPECT_TRUE(Rng::bernoulliThreshold(1.0).always);
    EXPECT_TRUE(Rng::bernoulliThreshold(2.0).always);
    EXPECT_FALSE(Rng::bernoulliThreshold(std::nextafter(1.0, 0.0)).always);
    EXPECT_EQ(Rng::bernoulliThreshold(0x1p-64).below, 1u);
    EXPECT_EQ(Rng::bernoulliThreshold(0.5).below,
              (std::uint64_t{1} << 63) - 512);

    // 1000 random p: uniform ones and tiny ones, 1000 draws each.
    std::mt19937_64 pick(2022);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < 1000; ++i) {
        const double p = i % 2 == 0
                             ? unit(pick)
                             : std::ldexp(unit(pick),
                                          -static_cast<int>(pick() % 64));
        expectThresholdEdges(p);
        expectThresholdStream(p, pick(), 1000);
    }
}

TEST(Mt64, MatchesTheStandardTenThousandthDraw)
{
    // [rand.eng.mers] names the 10000th consecutive value of a
    // default-seeded mt19937_64: 9981545732273789042.
    std::mt19937_64 std_default; // default seed 5489
    Mt64 engine(5489);
    std::uint64_t ours = 0, stds = 0;
    for (int i = 0; i < 10000; ++i) {
        ours = engine();
        stds = std_default();
    }
    EXPECT_EQ(ours, 9981545732273789042ULL);
    EXPECT_EQ(stds, ours);
}

TEST(Rng, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1'000'000), b.uniformInt(0, 1'000'000));
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 32; ++i)
        differing += a.uniformInt(0, 1 << 30) != b.uniformInt(0, 1 << 30);
    EXPECT_GT(differing, 0);
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(7);
    EXPECT_EQ(rng.uniformInt(42, 42), 42);
}

TEST(Rng, Uniform01HalfOpen)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform01();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
    // Out-of-range probabilities are clamped, not errors.
    EXPECT_TRUE(rng.bernoulli(2.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
}

TEST(Rng, BernoulliRateIsRoughlyP)
{
    Rng rng(5);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.bernoulli(0.8);
    const double rate = static_cast<double>(hits) / trials;
    EXPECT_NEAR(rate, 0.8, 0.02);
}

TEST(Rng, NonzeroInt8NeverZeroAndCoversSignRange)
{
    Rng rng(9);
    bool saw_negative = false, saw_positive = false;
    std::set<int> values;
    for (int i = 0; i < 5000; ++i) {
        const int v = rng.nonzeroInt8();
        EXPECT_NE(v, 0);
        EXPECT_GE(v, -128);
        EXPECT_LE(v, 127);
        saw_negative |= v < 0;
        saw_positive |= v > 0;
        values.insert(v);
    }
    EXPECT_TRUE(saw_negative);
    EXPECT_TRUE(saw_positive);
    // 5000 draws over 255 values should cover most of the range.
    EXPECT_GT(values.size(), 200u);
}

TEST(Rng, ShufflePermutes)
{
    Rng rng(13);
    std::vector<std::size_t> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    auto original = v;
    rng.shuffle(v);
    auto sorted = v;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, original);
}

TEST(Rng, MixSeedIsDeterministicAndSaltSensitive)
{
    EXPECT_EQ(Rng::mixSeed(1, 2), Rng::mixSeed(1, 2));
    EXPECT_NE(Rng::mixSeed(1, 2), Rng::mixSeed(1, 3));
    EXPECT_NE(Rng::mixSeed(1, 2), Rng::mixSeed(2, 2));
    // Sum-based mixing must not collapse (seed, salt) pairs with equal
    // sums into the same stream seed via the string path.
    EXPECT_NE(Rng::mixSeed(1, std::string("ab")),
              Rng::mixSeed(1, std::string("ba")));
    EXPECT_EQ(Rng::mixSeed(42, std::string("Griffin")),
              Rng::mixSeed(42, std::string("Griffin")));
}

TEST(Rng, ForkIsIndependentOfParentContinuation)
{
    Rng parent(77);
    Rng child = parent.fork();
    // The child stream must be reproducible: rebuilding the same way
    // gives the same values.
    Rng parent2(77);
    Rng child2 = parent2.fork();
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(child.uniformInt(0, 1 << 20), child2.uniformInt(0, 1 << 20));
}

} // namespace
} // namespace griffin
