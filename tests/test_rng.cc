/**
 * @file
 * Tests for deterministic random number generation.
 */

#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"

namespace griffin {
namespace {

constexpr std::uint64_t kMaxDraw = ~std::uint64_t{0};

const std::uint64_t kSeeds[] = {0, 1, 0x5eed061ff1002022ULL, kMaxDraw};

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
    // The 64-bit arithmetic computes the 128-bit product's high word.
    std::mt19937_64 draws(2022);
    for (int i = 0; i < (1 << 16); ++i) {
        const std::uint64_t u = i < 64 ? kMaxDraw >> i : draws();
        const auto h = static_cast<int>((U128{u} * 255) >> 64);
        ASSERT_EQ(Rng::nonzeroInt8FromDraw(u), h - 128 + (h >= 128))
            << "draw " << u;
    }
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
        std::mt19937_64 engine(seed);
        for (int i = 0; i < kDraws; ++i) {
            const int got = rng.nonzeroInt8();
            const int want = stdNonzeroInt8(engine);
            if (got != want) {
                ADD_FAILURE() << "seed " << seed << " draw " << i << ": "
                              << got << " != " << want;
                break;
            }
        }
        std::uniform_int_distribution<std::int64_t> next(0, 1 << 30);
        EXPECT_EQ(rng.uniformInt(0, 1 << 30), next(engine))
            << "seed " << seed;
    }
}

TEST(Rng, Uniform01MatchesStdUniformRealDistribution)
{
    // Tile sampling and randomSparse draw through uniform01() and
    // bernoulli(); both must stay libstdc++'s values over mt19937_64.
    for (const std::uint64_t seed : kSeeds) {
        Rng rng(seed);
        std::mt19937_64 engine(seed);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        for (int i = 0; i < (1 << 16); ++i)
            ASSERT_EQ(rng.uniform01(), unit(engine))
                << "seed " << seed << " draw " << i;
    }
}

TEST(Rng, CounterDrawIsTheSplitmix64Stream)
{
    // Vigna's reference splitmix64 (prng.di.unimi.it), sequential:
    // counterDraw(key, i) must be its output i from state `key`.
    const auto reference = [](std::uint64_t &x) {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    };
    for (const std::uint64_t key : kSeeds) {
        std::uint64_t state = key;
        for (std::uint64_t i = 0; i < 1000; ++i)
            ASSERT_EQ(Rng::counterDraw(key, i), reference(state))
                << "key " << key << " draw " << i;
    }
    // The published first outputs from state 1234567.
    const std::uint64_t published[] = {
        6457827717110365317ULL, 3203168211198807973ULL,
        9817491932198370423ULL, 4593380528125082431ULL,
        16408922859458223821ULL};
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(Rng::counterDraw(1234567, i), published[i]) << i;
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

} // namespace
} // namespace griffin
