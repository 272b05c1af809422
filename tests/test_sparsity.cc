/**
 * @file
 * Tests for synthetic sparsity generators.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "tensor/sparsity.hh"

namespace griffin {
namespace {

// ---- byte identity with the per-draw generators ----------------------
//
// The generators read the engine's 312-draw block in place with integer
// thresholds; these are the plain loops they replace, one Rng call per
// draw.  Row widths straddle the block edge, and the draw after the
// matrix (what generateLayerWorkset forks the sampling seed from) must
// match too.

MatrixI8
perDrawClustered(std::size_t rows, std::size_t cols, double sparsity,
                 double run_len, Rng &rng)
{
    MatrixI8 m(rows, cols);
    const double exit_zero = 1.0 / run_len;
    const double enter_zero =
        sparsity >= 1.0 ? 1.0
                        : std::min(1.0, exit_zero * sparsity /
                                            std::max(1e-9, 1.0 - sparsity));
    for (std::size_t r = 0; r < rows; ++r) {
        bool in_zero_run = rng.bernoulli(sparsity);
        for (std::size_t c = 0; c < cols; ++c) {
            if (!in_zero_run)
                m.at(r, c) = rng.nonzeroInt8();
            in_zero_run = in_zero_run ? !rng.bernoulli(exit_zero)
                                      : rng.bernoulli(enter_zero);
        }
    }
    return m;
}

MatrixI8
perDrawLaneBiased(std::size_t rows, std::size_t cols, double sparsity,
                  double bias, int period, Rng &rng)
{
    MatrixI8 m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        const int phase = static_cast<int>(r % period);
        const double centered =
            period == 1
                ? 0.0
                : 1.0 - 2.0 * phase / static_cast<double>(period - 1);
        const double q =
            std::clamp((1.0 - sparsity) * (1.0 + bias * centered), 0.0,
                       1.0);
        for (std::size_t c = 0; c < cols; ++c)
            if (rng.bernoulli(q))
                m.at(r, c) = rng.nonzeroInt8();
    }
    return m;
}

const std::uint64_t kSeeds[] = {0, 1, Rng::defaultSeed, ~std::uint64_t{0}};
const double kRates[] = {0.0, 0x1p-64, 0.37, 0.5, 0.8333, 1.0};
const std::size_t kWidths[] = {1, 311, 312, 313, 1000};
// The lane-biased kernel decodes 64-draw words: add widths at and
// around the word edges.
const std::size_t kLaneBiasedWidths[] = {1,   2,   31,  32,  33,
                                         63,  64,  65,  127, 128,
                                         129, 311, 312, 313, 1000};

TEST(SparsityIdentity, ClusteredEqualsPerDrawLoop)
{
    constexpr std::size_t kRows = 5;
    for (const std::uint64_t seed : kSeeds)
        for (const double rate : kRates)
            for (const double run_len : {1.0, 2.0, 8.0})
                for (const std::size_t cols : kWidths) {
                    Rng fast(seed), ref(seed);
                    ASSERT_EQ(clusteredSparse(kRows, cols, rate, run_len,
                                              fast),
                              perDrawClustered(kRows, cols, rate, run_len,
                                               ref))
                        << "seed " << seed << " rate " << rate << " run "
                        << run_len << " cols " << cols;
                    ASSERT_EQ(fast.engine()(), ref.engine()())
                        << "next draw, seed " << seed << " rate " << rate
                        << " run " << run_len << " cols " << cols;
                }
}

TEST(SparsityIdentity, LaneBiasedEqualsPerDrawLoop)
{
    // 9 rows: period 4 wraps twice, period 16 exceeds the row count.
    constexpr std::size_t kRows = 9;
    for (const std::uint64_t seed : kSeeds)
        for (const double rate : kRates)
            for (const double bias : {0.0, 0.5, 1.0})
                for (const int period : {1, 4, 16})
                    for (const std::size_t cols : kLaneBiasedWidths) {
                        Rng fast(seed), ref(seed);
                        ASSERT_EQ(laneBiasedSparse(kRows, cols, rate, bias,
                                                   period, fast),
                                  perDrawLaneBiased(kRows, cols, rate,
                                                    bias, period, ref))
                            << "seed " << seed << " rate " << rate
                            << " bias " << bias << " period " << period
                            << " cols " << cols;
                        ASSERT_EQ(fast.engine()(), ref.engine()())
                            << "next draw, seed " << seed << " rate "
                            << rate << " bias " << bias << " period "
                            << period << " cols " << cols;
                    }
}

TEST(Sparsity, RandomSparseHitsTargetRate)
{
    Rng rng(51);
    auto m = randomSparse(200, 200, 0.8, rng);
    EXPECT_NEAR(m.sparsity(), 0.8, 0.01);
}

TEST(Sparsity, ZeroSparsityIsFullyDense)
{
    Rng rng(52);
    auto m = randomSparse(50, 50, 0.0, rng);
    EXPECT_EQ(m.nnz(), 2500u);
}

TEST(Sparsity, FullSparsityIsAllZero)
{
    Rng rng(53);
    auto m = randomSparse(50, 50, 1.0, rng);
    EXPECT_EQ(m.nnz(), 0u);
}

TEST(Sparsity, SameSeedSameMatrix)
{
    Rng a(54), b(54);
    EXPECT_EQ(randomSparse(30, 30, 0.5, a), randomSparse(30, 30, 0.5, b));
}

TEST(Sparsity, ClusteredHitsTargetRate)
{
    Rng rng(55);
    auto m = clusteredSparse(300, 300, 0.5, 8.0, rng);
    EXPECT_NEAR(m.sparsity(), 0.5, 0.05);
}

TEST(Sparsity, ClusteredHasLongerRunsThanIid)
{
    Rng rng(56);
    auto count_runs = [](const MatrixI8 &m) {
        // Count zero runs; fewer runs at equal sparsity = longer runs.
        std::size_t runs = 0;
        for (std::size_t r = 0; r < m.rows(); ++r) {
            bool in_run = false;
            for (std::size_t c = 0; c < m.cols(); ++c) {
                const bool z = m.at(r, c) == 0;
                if (z && !in_run)
                    ++runs;
                in_run = z;
            }
        }
        return runs;
    };
    auto iid = randomSparse(200, 200, 0.5, rng);
    auto clustered = clusteredSparse(200, 200, 0.5, 8.0, rng);
    EXPECT_LT(count_runs(clustered), count_runs(iid) / 2);
}

TEST(Sparsity, UnbalancedVariesByRow)
{
    Rng rng(57);
    auto m = unbalancedSparse(100, 400, 0.5, 0.4, rng);
    double min_rate = 1.0, max_rate = 0.0;
    for (std::size_t r = 0; r < m.rows(); ++r) {
        std::size_t z = 0;
        for (std::size_t c = 0; c < m.cols(); ++c)
            z += m.at(r, c) == 0;
        const double rate = static_cast<double>(z) / m.cols();
        min_rate = std::min(min_rate, rate);
        max_rate = std::max(max_rate, rate);
    }
    EXPECT_LT(min_rate, 0.3);
    EXPECT_GT(max_rate, 0.7);
    EXPECT_NEAR(m.sparsity(), 0.5, 0.06);
}

TEST(Sparsity, PruneInPlaceIncreasesSparsity)
{
    Rng rng(58);
    auto m = randomDense(100, 100, rng);
    pruneInPlace(m, 0.9, rng);
    EXPECT_NEAR(m.sparsity(), 0.9, 0.02);
}

TEST(Sparsity, PruneZeroRateIsNoOp)
{
    Rng rng(59);
    auto m = randomDense(20, 20, rng);
    auto before = m;
    pruneInPlace(m, 0.0, rng);
    EXPECT_EQ(m, before);
}

TEST(Sparsity, LaneBiasedHitsOverallTarget)
{
    Rng rng(61);
    auto m = laneBiasedSparse(400, 200, 0.8, 0.8, 4, rng);
    EXPECT_NEAR(m.sparsity(), 0.8, 0.02);
}

TEST(Sparsity, LaneBiasedCreatesPeriodicImbalance)
{
    Rng rng(62);
    auto m = laneBiasedSparse(4000, 64, 0.8, 0.8, 4, rng);
    // Phase 0 rows must be substantially denser than phase 3 rows.
    double nnz_by_phase[4] = {0, 0, 0, 0};
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            nnz_by_phase[r % 4] += m.at(r, c) != 0;
    EXPECT_GT(nnz_by_phase[0], 2.0 * nnz_by_phase[3]);
}

TEST(Sparsity, LaneBiasZeroIsUnbiased)
{
    Rng rng(63);
    auto m = laneBiasedSparse(4000, 16, 0.5, 0.0, 4, rng);
    double nnz_by_phase[4] = {0, 0, 0, 0};
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            nnz_by_phase[r % 4] += m.at(r, c) != 0;
    EXPECT_NEAR(nnz_by_phase[0] / nnz_by_phase[3], 1.0, 0.1);
}

TEST(SparsityDeathTest, LaneBiasedValidatesArguments)
{
    Rng rng(64);
    EXPECT_DEATH(laneBiasedSparse(4, 4, 0.5, 1.5, 4, rng), "bias");
    EXPECT_DEATH(laneBiasedSparse(4, 4, 0.5, 0.5, 0, rng), "period");
}

TEST(SparsityDeathTest, OutOfRangeRateIsRejected)
{
    Rng rng(60);
    EXPECT_DEATH(randomSparse(4, 4, 1.5, rng), "outside");
    EXPECT_DEATH(randomSparse(4, 4, -0.1, rng), "outside");
    EXPECT_DEATH(clusteredSparse(4, 4, 0.5, 0.5, rng), "run length");
}

} // namespace
} // namespace griffin
