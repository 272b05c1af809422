/**
 * @file
 * Tests for blocked 3-D tile views and dense cycle accounting.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "tensor/sparsity.hh"
#include "tensor/tile.hh"

namespace griffin {
namespace {

TEST(TileShape, PaperGeometryIs1024Macs)
{
    TileShape shape; // defaults are the paper's (16,16,4)
    EXPECT_EQ(shape.k0, 16);
    EXPECT_EQ(shape.n0, 16);
    EXPECT_EQ(shape.m0, 4);
    EXPECT_EQ(shape.macsPerCycle(), 1024);
}

TEST(StepsForK, CeilingBehaviour)
{
    EXPECT_EQ(stepsForK(0, 16), 0);
    EXPECT_EQ(stepsForK(1, 16), 1);
    EXPECT_EQ(stepsForK(16, 16), 1);
    EXPECT_EQ(stepsForK(17, 16), 2);
    EXPECT_EQ(stepsForK(160, 16), 10);
}

TEST(TileViewA, IndexingMatchesFlatLayout)
{
    Rng rng(31);
    auto a = randomSparse(8, 40, 0.0, rng);
    TileShape shape;
    TileViewA view(a, shape, 4); // rows 4..7
    EXPECT_EQ(view.steps(), 3);  // ceil(40/16)
    EXPECT_EQ(view.lanes(), 16);
    EXPECT_EQ(view.units(), 4);
    for (std::int64_t k1 = 0; k1 < view.steps(); ++k1) {
        for (int k2 = 0; k2 < 16; ++k2) {
            for (int m = 0; m < 4; ++m) {
                const auto k = k1 * 16 + k2;
                const std::int8_t want =
                    k < 40 ? a.at(4 + m, static_cast<std::size_t>(k)) : 0;
                EXPECT_EQ(view.at(k1, k2, m), want);
            }
        }
    }
}

TEST(TileViewA, EdgeTilePadsRowsWithZero)
{
    Rng rng(32);
    // 6 rows, M0=4 -> second tile ragged
    auto a = randomSparse(6, 16, 0.0, rng);
    TileShape shape;
    TileViewA view(a, shape, 4);
    EXPECT_EQ(view.at(0, 0, 0), a.at(4, 0)); // row 4 exists
    EXPECT_EQ(view.at(0, 3, 1), a.at(5, 3)); // row 5 exists
    EXPECT_EQ(view.at(0, 3, 2), 0);          // row 6 -> zero padded
    EXPECT_EQ(view.at(0, 3, 3), 0);          // row 7 -> zero padded
}

TEST(TileViewB, IndexingMatchesFlatLayout)
{
    Rng rng(33);
    auto b = randomSparse(40, 32, 0.0, rng);
    TileShape shape;
    TileViewB view(b, shape, 16); // cols 16..31
    EXPECT_EQ(view.steps(), 3);
    for (std::int64_t k1 = 0; k1 < view.steps(); ++k1) {
        for (int k2 = 0; k2 < 16; ++k2) {
            for (int n = 0; n < 16; ++n) {
                const auto k = k1 * 16 + k2;
                const std::int8_t want =
                    k < 40 ? b.at(static_cast<std::size_t>(k), 16 + n) : 0;
                EXPECT_EQ(view.at(k1, k2, n), want);
            }
        }
    }
}

TEST(TileViewB, PartialLastStepReadsZero)
{
    Rng rng(34);
    // K=20: step 1 has lanes 4..15 padded
    auto b = randomSparse(20, 16, 0.0, rng);
    TileShape shape;
    TileViewB view(b, shape, 0);
    EXPECT_EQ(view.steps(), 2);
    for (int k2 = 4; k2 < 16; ++k2)
        for (int n = 0; n < 16; ++n)
            EXPECT_EQ(view.at(1, k2, n), 0);
    EXPECT_FALSE(view.nonzero(1, 15, 0));
}

TEST(DenseCycles, MatchesClosedForm)
{
    TileShape shape;
    // 64x256x64: 16 row tiles x 4 col tiles x 16 steps.
    EXPECT_EQ(denseCycles(64, 256, 64, shape), 16 * 4 * 16);
    // Ragged everywhere: ceil(5/4) * ceil(17/16) * ceil(33/16)
    EXPECT_EQ(denseCycles(5, 33, 17, shape), 2 * 2 * 3);
    EXPECT_EQ(denseCycles(0, 16, 16, shape), 0);
}

TEST(DenseCycles, OneCyclePerStepAt1024Macs)
{
    TileShape shape;
    // A perfectly shaped GEMM runs at 1024 MACs/cycle.
    const std::int64_t m = 128, k = 512, n = 256;
    const auto cycles = denseCycles(m, k, n, shape);
    EXPECT_EQ(cycles * shape.macsPerCycle(), m * k * n);
}

} // namespace
} // namespace griffin
