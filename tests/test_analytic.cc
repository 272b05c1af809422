/**
 * @file
 * Tests for the analytical speedup model, including verification
 * against the cycle-level simulator (the paper's own methodology:
 * "an analytical model, verified by a simulator").
 */

#include <gtest/gtest.h>

#include "arch/presets.hh"
#include "common/rng.hh"
#include "model/analytic.hh"
#include "sim/gemm_sim.hh"
#include "tensor/sparsity.hh"

namespace griffin {
namespace {

const TileShape kShape{};

TEST(Analytic, DenseIsExactlyOne)
{
    EXPECT_DOUBLE_EQ(
        analyticSpeedup(RoutingConfig::dense(), kShape, 0.5, 0.5), 1.0);
}

TEST(Analytic, ZeroSparsityGivesNoSpeedup)
{
    EXPECT_NEAR(analyticSpeedup(RoutingConfig::sparseB(4, 0, 1, true),
                                kShape, 0.0, 0.0),
                1.0, 1e-9);
}

TEST(Analytic, FullSparsityHitsWindowBound)
{
    EXPECT_DOUBLE_EQ(analyticSpeedup(RoutingConfig::sparseB(4, 0, 0,
                                                            false),
                                     kShape, 0.0, 1.0),
                     5.0);
    EXPECT_DOUBLE_EQ(
        analyticSpeedup(RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, true),
                        kShape, 1.0, 1.0),
        9.0);
}

TEST(Analytic, NeverExceedsWindowOrIdealBound)
{
    for (double bsp : {0.3, 0.6, 0.8, 0.95}) {
        for (int d1 = 2; d1 <= 6; ++d1) {
            const auto cfg =
                RoutingConfig::sparseB(d1, 0, 1, false);
            const double s =
                analyticSpeedup(cfg, kShape, 0.0, bsp);
            EXPECT_LE(s, 1.0 + d1 + 1e-9);
            EXPECT_GE(s, 1.0 - 1e-9);
        }
    }
}

TEST(Analytic, MonotoneInLookahead)
{
    double prev = 0.0;
    for (int d1 = 2; d1 <= 7; ++d1) {
        const double s = analyticSpeedup(
            RoutingConfig::sparseB(d1, 0, 0, false), kShape, 0.0, 0.8);
        EXPECT_GE(s + 1e-9, prev) << "d1 " << d1;
        prev = s;
    }
}

TEST(Analytic, BorrowDistancesImprove)
{
    const double plain = analyticSpeedup(
        RoutingConfig::sparseB(4, 0, 0, false), kShape, 0.0, 0.8);
    const double with_d3 = analyticSpeedup(
        RoutingConfig::sparseB(4, 0, 1, false), kShape, 0.0, 0.8);
    const double with_d2 = analyticSpeedup(
        RoutingConfig::sparseB(4, 2, 0, false), kShape, 0.0, 0.8);
    EXPECT_GT(with_d3, plain);
    EXPECT_GT(with_d2, plain);
}

TEST(Analytic, BinomialMaxMedianSanity)
{
    // One group: median of the binomial itself.
    EXPECT_EQ(binomialMaxMedian(10, 0.5, 1), 5);
    // Many groups push the max toward the tail.
    EXPECT_GT(binomialMaxMedian(10, 0.5, 1000), 7);
    // Degenerate cases.
    EXPECT_EQ(binomialMaxMedian(10, 0.0, 64), 0);
    EXPECT_EQ(binomialMaxMedian(10, 1.0, 64), 10);
}

/** The paper's verification: model vs cycle simulator. */
struct VerifyCase
{
    RoutingConfig cfg;
    double asp;
    double bsp;
    DnnCategory cat;
};

class AnalyticVsSimulator : public testing::TestWithParam<VerifyCase>
{
};

TEST_P(AnalyticVsSimulator, AgreesWithinBand)
{
    const auto &c = GetParam();
    Rng rng(0xabcd);
    auto a = randomSparse(64, 768, c.asp, rng);
    auto b = randomSparse(768, 32, c.bsp, rng);
    ArchConfig arch = denseBaseline();
    arch.name = "dse-point";
    arch.routing = c.cfg;
    const auto sim = simulateGemm(a, b, arch, c.cat);
    const double predicted =
        analyticSpeedup(c.cfg, kShape, c.asp, c.bsp);
    // The model ignores edge tiles and the exact arbitration chain;
    // the paper only needs it to rank design points, so a 30%
    // relative band is the contract.
    EXPECT_NEAR(predicted / sim.speedup(), 1.0, 0.30)
        << c.cfg.str() << " predicted " << predicted << " simulated "
        << sim.speedup();
}

INSTANTIATE_TEST_SUITE_P(
    DesignPoints, AnalyticVsSimulator,
    testing::Values(
        VerifyCase{RoutingConfig::sparseB(4, 0, 1, false), 0.0, 0.8,
                   DnnCategory::B},
        VerifyCase{RoutingConfig::sparseB(2, 1, 1, false), 0.0, 0.8,
                   DnnCategory::B},
        VerifyCase{RoutingConfig::sparseB(6, 0, 0, false), 0.0, 0.9,
                   DnnCategory::B},
        VerifyCase{RoutingConfig::sparseB(4, 0, 0, false), 0.0, 0.5,
                   DnnCategory::B},
        VerifyCase{RoutingConfig::sparseA(2, 1, 0, false), 0.5, 0.0,
                   DnnCategory::A},
        VerifyCase{RoutingConfig::sparseA(3, 1, 0, false), 0.6, 0.0,
                   DnnCategory::A},
        VerifyCase{RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, false),
                   0.5, 0.8, DnnCategory::AB}));

} // namespace
} // namespace griffin
