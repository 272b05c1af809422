/**
 * @file
 * Tests for synthetic sparsity generators.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "support/unbalanced_sparse.hh"
#include "tensor/sparsity.hh"

namespace griffin {
namespace {

// ---- the generator contract -------------------------------------------
//
// Both workset generators judged by their output alone, over the
// grids of every (sparsity, bias, period) and (sparsity, run length):
// the zero fraction lies within 4 sigma of its expected value, a
// feasible clustered pair has zero runs of mean length L, the values
// cover every nonzero INT8, and every matrix is the corner of any
// larger one from the same seed.  The expected values are the
// generators' own rates, clamps included; ROADMAP direction 1 moves
// those rates onto the targets, not this structure.

const double kSparsities[] = {0, 0.05, 0.2, 0.33, 0.5, 0.8, 0.95, 1};
const double kBiases[] = {0, 0.3, 0.5, 0.8, 1};
const int kPeriods[] = {1, 4, 16};
const double kRunLengths[] = {1, 2, 4, 16};

/** laneBiasedSparse's keep rate of `phase`: its clamped profile. */
double
laneKeepRate(double sparsity, double bias, int period, int phase)
{
    const double centered =
        period == 1 ? 0.0
                    : 1.0 - 2.0 * phase / static_cast<double>(period - 1);
    return std::clamp((1.0 - sparsity) * (1.0 + bias * centered), 0.0,
                      1.0);
}

/** clusteredSparse's chain: the rates that enter and leave a run. */
struct Chain
{
    double enter = 0;
    double exit = 0;

    Chain(double sparsity, double run_len) : exit(1.0 / run_len)
    {
        enter = sparsity >= 1.0
                    ? 1.0
                    : std::min(1.0, exit * sparsity /
                                        std::max(1e-9, 1.0 - sparsity));
    }

    /** Stationary zero fraction. */
    double zeros() const { return enter / (enter + exit); }
    /** Lag-one correlation of the zero indicator. */
    double rho() const { return 1.0 - enter - exit; }
};

std::size_t
countZeros(const MatrixI8 &m)
{
    return static_cast<std::size_t>(
        std::count(m.data(), m.data() + m.size(), std::int8_t{0}));
}

/** Zero runs along the rows (a run ends at its row's end). */
std::size_t
countZeroRuns(const MatrixI8 &m)
{
    std::size_t runs = 0;
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            runs += m.at(r, c) == 0 && (c == 0 || m.at(r, c - 1) != 0);
    return runs;
}

TEST(GeneratorContract, LaneBiasedZeroFractionIsTheMeanClampedKeepRate)
{
    // 256 rows: every period divides it, so each phase has 256 / period
    // rows.
    constexpr std::size_t kRows = 256, kCols = 256;
    std::uint64_t seed = 100;
    for (const double sparsity : kSparsities)
        for (const double bias : kBiases)
            for (const int period : kPeriods) {
                const MatrixI8 m = laneBiasedSparse(kRows, kCols, sparsity,
                                                    bias, period, ++seed);
                // A sum of independent Bernoulli zeros, q per row phase.
                double expect = 0, variance = 0;
                for (std::size_t r = 0; r < kRows; ++r) {
                    const double q = laneKeepRate(
                        sparsity, bias, period, static_cast<int>(r % period));
                    expect += kCols * (1.0 - q);
                    variance += kCols * q * (1.0 - q);
                }
                EXPECT_LE(std::abs(static_cast<double>(countZeros(m)) -
                                   expect),
                          4.0 * std::sqrt(variance) + 1e-6)
                    << "sparsity " << sparsity << " bias " << bias
                    << " period " << period;
            }
}

TEST(GeneratorContract, ClusteredZeroFractionIsTheChainsStationaryFraction)
{
    // Rows long enough that the chain's start (a zero run with
    // probability `sparsity`, not the stationary fraction when the
    // entry rate clamps) moves the count by under one zero per row.
    constexpr std::size_t kRows = 64, kCols = 4096;
    std::uint64_t seed = 200;
    for (const double sparsity : kSparsities)
        for (const double run_len : kRunLengths) {
            const MatrixI8 m =
                clusteredSparse(kRows, kCols, sparsity, run_len, ++seed);
            const Chain chain(sparsity, run_len);
            const double pi = chain.zeros();
            const double rho = chain.rho();
            const double n = static_cast<double>(kRows * kCols);
            // Binomial variance, scaled by the chain's correlation
            // (1 + rho) / (1 - rho), plus the start's bias per row.
            const double sigma =
                std::sqrt(n * pi * (1.0 - pi) * (1.0 + rho) / (1.0 - rho));
            const double start_bias =
                kRows * std::abs(sparsity - pi) / (1.0 - rho);
            EXPECT_LE(std::abs(static_cast<double>(countZeros(m)) - n * pi),
                      4.0 * sigma + start_bias + 1e-6)
                << "sparsity " << sparsity << " run length " << run_len;
        }
}

TEST(GeneratorContract, ClusteredMeanZeroRunIsTheRunLengthWhereFeasible)
{
    constexpr std::size_t kRows = 64, kCols = 4096;
    std::uint64_t seed = 300;
    int feasible = 0;
    for (const double sparsity : kSparsities)
        for (const double run_len : kRunLengths) {
            // Feasible: a zero fraction strictly inside (0, 1) that the
            // chain's stationary fraction reaches, s <= L / (L + 1).
            const Chain chain(sparsity, run_len);
            if (sparsity <= 0.0 || sparsity >= 1.0 ||
                std::abs(chain.zeros() - sparsity) > 1e-9)
                continue;
            ++feasible;
            const MatrixI8 m =
                clusteredSparse(kRows, kCols, sparsity, run_len, ++seed);
            const auto runs = static_cast<double>(countZeroRuns(m));
            ASSERT_GT(runs, 0.0);
            const double mean = static_cast<double>(countZeros(m)) / runs;
            // Run lengths are geometric with mean L and variance
            // L (L - 1); a row's end cuts at most one run short.
            const double tolerance =
                4.0 * std::sqrt(run_len * (run_len - 1.0) / runs) +
                kRows * run_len / runs;
            EXPECT_NEAR(mean, run_len, tolerance + 1e-9)
                << "sparsity " << sparsity << " run length " << run_len;
        }
    EXPECT_EQ(feasible, 18);
}

TEST(GeneratorContract, NonzeroValuesCoverEveryInt8ButZero)
{
    std::set<int> lane, clustered;
    for (const double sparsity : {0.0, 0.5}) {
        const MatrixI8 b = laneBiasedSparse(512, 512, sparsity, 0.5, 4, 400);
        const MatrixI8 a = clusteredSparse(512, 512, sparsity, 2.0, 401);
        for (std::size_t i = 0; i < b.size(); ++i) {
            lane.insert(b.data()[i]);
            clustered.insert(a.data()[i]);
        }
    }
    // All 256 INT8 values: the 255 nonzero ones, and 0.
    EXPECT_EQ(lane.size(), 256u);
    EXPECT_EQ(clustered.size(), 256u);
}

TEST(GeneratorContract, EveryMatrixIsACornerOfALargerOne)
{
    // Widths on both sides of the fill's 64-element blocks; row counts
    // below and above the period.
    for (const std::uint64_t seed : {std::uint64_t{0}, ~std::uint64_t{0}}) {
        const MatrixI8 big_b = laneBiasedSparse(40, 200, 0.5, 0.8, 4, seed);
        const MatrixI8 big_a = clusteredSparse(40, 200, 0.5, 4, seed);
        for (const std::size_t rows : {1, 3, 37})
            for (const std::size_t cols : {1, 63, 64, 65, 130}) {
                const MatrixI8 b =
                    laneBiasedSparse(rows, cols, 0.5, 0.8, 4, seed);
                const MatrixI8 a = clusteredSparse(rows, cols, 0.5, 4, seed);
                for (std::size_t r = 0; r < rows; ++r)
                    for (std::size_t c = 0; c < cols; ++c) {
                        ASSERT_EQ(b.at(r, c), big_b.at(r, c))
                            << "B " << rows << "x" << cols << " (" << r
                            << ", " << c << ") seed " << seed;
                        ASSERT_EQ(a.at(r, c), big_a.at(r, c))
                            << "A " << rows << "x" << cols << " (" << r
                            << ", " << c << ") seed " << seed;
                    }
            }
    }
    EXPECT_NE(laneBiasedSparse(8, 64, 0.5, 0.5, 4, 1),
              laneBiasedSparse(8, 64, 0.5, 0.5, 4, 2));
    EXPECT_NE(clusteredSparse(8, 64, 0.5, 2, 1),
              clusteredSparse(8, 64, 0.5, 2, 2));
}

// ---- randomSparse and the generators' shape -----------------------------

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
    auto m = clusteredSparse(300, 300, 0.5, 8.0, 55);
    EXPECT_NEAR(m.sparsity(), 0.5, 0.05);
}

TEST(Sparsity, ClusteredHasLongerRunsThanIid)
{
    Rng rng(56);
    auto iid = randomSparse(200, 200, 0.5, rng);
    auto clustered = clusteredSparse(200, 200, 0.5, 8.0, 56);
    // Fewer runs at equal sparsity = longer runs.
    EXPECT_LT(countZeroRuns(clustered), countZeroRuns(iid) / 2);
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

TEST(Sparsity, LaneBiasedHitsOverallTarget)
{
    auto m = laneBiasedSparse(400, 200, 0.8, 0.8, 4, 61);
    EXPECT_NEAR(m.sparsity(), 0.8, 0.02);
}

TEST(Sparsity, LaneBiasedCreatesPeriodicImbalance)
{
    auto m = laneBiasedSparse(4000, 64, 0.8, 0.8, 4, 62);
    // Phase 0 rows must be substantially denser than phase 3 rows.
    double nnz_by_phase[4] = {0, 0, 0, 0};
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            nnz_by_phase[r % 4] += m.at(r, c) != 0;
    EXPECT_GT(nnz_by_phase[0], 2.0 * nnz_by_phase[3]);
}

TEST(Sparsity, LaneBiasZeroIsUnbiased)
{
    auto m = laneBiasedSparse(4000, 16, 0.5, 0.0, 4, 63);
    double nnz_by_phase[4] = {0, 0, 0, 0};
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            nnz_by_phase[r % 4] += m.at(r, c) != 0;
    EXPECT_NEAR(nnz_by_phase[0] / nnz_by_phase[3], 1.0, 0.1);
}

TEST(SparsityDeathTest, LaneBiasedValidatesArguments)
{
    EXPECT_DEATH(laneBiasedSparse(4, 4, 0.5, 1.5, 4, 64), "bias");
    EXPECT_DEATH(laneBiasedSparse(4, 4, 0.5, 0.5, 0, 64), "period");
}

TEST(SparsityDeathTest, OutOfRangeRateIsRejected)
{
    Rng rng(60);
    EXPECT_DEATH(randomSparse(4, 4, 1.5, rng), "outside");
    EXPECT_DEATH(randomSparse(4, 4, -0.1, rng), "outside");
    EXPECT_DEATH(clusteredSparse(4, 4, 0.5, 0.5, 60), "run length");
    EXPECT_DEATH(laneBiasedSparse(4, 4, 1.5, 0.5, 4, 60), "outside");
}

} // namespace
} // namespace griffin
