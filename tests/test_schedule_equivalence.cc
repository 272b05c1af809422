/**
 * @file
 * Property tests: every scheduling engine, replayed, must reproduce
 * the reference dense GEMM exactly — across sparsities, routing
 * configurations, shuffle settings, and ragged tile shapes.  This is
 * the functional backbone of the whole simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "arch/overhead.hh"
#include "common/rng.hh"
#include "sched/a_arbiter.hh"
#include "sched/b_preprocess.hh"
#include "sched/dual_scheduler.hh"
#include "sched/verify.hh"
#include "tensor/sparsity.hh"

namespace griffin {
namespace {

const TileShape kShape{}; // (16,16,4)

struct Scenario
{
    double a_sparsity;
    double b_sparsity;
    std::int64_t m, k, n;
    bool shuffle;
};

std::string
scenarioName(const testing::TestParamInfo<Scenario> &info)
{
    const auto &s = info.param;
    std::string name = "a" + std::to_string(int(s.a_sparsity * 100)) +
                       "_b" + std::to_string(int(s.b_sparsity * 100)) +
                       "_m" + std::to_string(s.m) + "k" +
                       std::to_string(s.k) + "n" + std::to_string(s.n) +
                       (s.shuffle ? "_shon" : "_shoff");
    return name;
}

class ScheduleEquivalence : public testing::TestWithParam<Scenario>
{
  protected:
    void
    SetUp() override
    {
        const auto &s = GetParam();
        Rng rng(0xfeed + static_cast<std::uint64_t>(s.m * 31 + s.k * 7 +
                                                    s.n));
        a_ = randomSparse(static_cast<std::size_t>(s.m),
                          static_cast<std::size_t>(s.k), s.a_sparsity,
                          rng);
        b_ = randomSparse(static_cast<std::size_t>(s.k),
                          static_cast<std::size_t>(s.n), s.b_sparsity,
                          rng);
    }

    MatrixI8 a_, b_;
};

const Scenario kScenarios[] = {
    {0.0, 0.8, 8, 64, 32, true},    // weight sparse, aligned
    {0.0, 0.8, 8, 64, 32, false},
    {0.5, 0.0, 8, 64, 32, true},    // activation sparse
    {0.5, 0.8, 8, 64, 32, true},    // dual sparse
    {0.5, 0.8, 8, 64, 32, false},
    {0.9, 0.95, 4, 48, 16, true},   // extreme sparsity
    {0.0, 0.0, 4, 32, 16, true},    // fully dense
    {1.0, 0.8, 4, 32, 16, true},    // all-zero A
    {0.5, 1.0, 4, 32, 16, true},    // all-zero B
    {0.4, 0.7, 7, 50, 21, true},    // ragged everything
    {0.4, 0.7, 5, 17, 9, false},    // tiny ragged
    {0.6, 0.85, 13, 130, 40, true}, // multi-tile both axes
};

// --- Sparse.B engine -------------------------------------------------

TEST_P(ScheduleEquivalence, BPreprocessReplaysToReferenceGemm)
{
    const Borrow db{4, 0, 1};
    Shuffler sh(GetParam().shuffle, kShape.k0);
    for (std::int64_t col_base = 0;
         col_base < static_cast<std::int64_t>(b_.cols());
         col_base += kShape.n0) {
        TileViewB vb(b_, kShape, col_base);
        auto stream = preprocessB(vb, db, sh, true);
        // Every B nonzero of the tile is scheduled exactly once.
        std::int64_t tile_nnz = 0;
        for (std::int64_t k1 = 0; k1 < vb.steps(); ++k1)
            for (int k2 = 0; k2 < kShape.k0; ++k2)
                for (int n = 0; n < kShape.n0; ++n)
                    tile_nnz += vb.nonzero(k1, k2, n);
        EXPECT_EQ(stream.scheduledElems(), tile_nnz);

        BorrowWindow bounds;
        bounds.steps = 1 + db.d1;
        bounds.laneDist = db.d2;
        bounds.colDist = db.d3;
        std::string err;
        EXPECT_TRUE(checkScheduleBounds(stream.ops(), bounds, &err))
            << err;

        for (std::int64_t row_base = 0;
             row_base < static_cast<std::int64_t>(a_.rows());
             row_base += kShape.m0) {
            auto got = replayBSchedule(stream, a_, b_, row_base,
                                       col_base, kShape);
            auto want = referenceTile(a_, b_, row_base, col_base,
                                      kShape);
            EXPECT_EQ(got, want)
                << "row " << row_base << " col " << col_base;
        }
    }
}

TEST_P(ScheduleEquivalence, BPreprocessOtherWindows)
{
    // Sweep several routing shapes on the first tile only.
    const Borrow windows[] = {{1, 0, 0}, {2, 2, 0}, {8, 0, 1},
                              {2, 1, 2}, {6, 0, 0}};
    Shuffler sh(GetParam().shuffle, kShape.k0);
    TileViewB vb(b_, kShape, 0);
    for (const auto &db : windows) {
        auto stream = preprocessB(vb, db, sh, true);
        auto got = replayBSchedule(stream, a_, b_, 0, 0, kShape);
        auto want = referenceTile(a_, b_, 0, 0, kShape);
        EXPECT_EQ(got, want) << "window (" << db.d1 << "," << db.d2
                             << "," << db.d3 << ")";
    }
}

// --- Sparse.A engine -------------------------------------------------

TEST_P(ScheduleEquivalence, AArbiterReplaysToReferenceGemm)
{
    const Borrow da{2, 1, 1};
    Shuffler sh(GetParam().shuffle, kShape.k0);
    for (std::int64_t row_base = 0;
         row_base < static_cast<std::int64_t>(a_.rows());
         row_base += kShape.m0) {
        TileViewA va(a_, kShape, row_base);
        auto result = scheduleA(va, da, sh, 1 + da.d1, true);

        std::int64_t tile_nnz = 0;
        for (std::int64_t k1 = 0; k1 < va.steps(); ++k1)
            for (int k2 = 0; k2 < kShape.k0; ++k2)
                for (int m = 0; m < kShape.m0; ++m)
                    tile_nnz += va.nonzero(k1, k2, m);
        EXPECT_EQ(result.stats.ops, tile_nnz);

        BorrowWindow bounds;
        bounds.steps = 1 + da.d1;
        bounds.laneDist = da.d2;
        bounds.rowDist = da.d3;
        std::string err;
        EXPECT_TRUE(checkScheduleBounds(result.ops, bounds, &err)) << err;

        for (std::int64_t col_base = 0;
             col_base < static_cast<std::int64_t>(b_.cols());
             col_base += kShape.n0) {
            auto got = replayASchedule(result.ops, sh, a_, b_, row_base,
                                       col_base, kShape);
            auto want = referenceTile(a_, b_, row_base, col_base,
                                      kShape);
            EXPECT_EQ(got, want)
                << "row " << row_base << " col " << col_base;
        }
    }
}

// --- Dual engine, preprocessed (Griffin) ------------------------------

/** Effectual pairs of the output tile at (row_base, col_base), counted
 *  from the matrices: the (m, k, n) with A[m][k] and B[k][n] both
 *  nonzero. */
std::int64_t
tilePairs(const MatrixI8 &a, const MatrixI8 &b, std::int64_t row_base,
          std::int64_t col_base)
{
    const auto rows = std::min<std::int64_t>(
        static_cast<std::int64_t>(a.rows()), row_base + kShape.m0);
    const auto cols = std::min<std::int64_t>(
        static_cast<std::int64_t>(b.cols()), col_base + kShape.n0);
    std::int64_t n = 0;
    for (std::size_t k = 0; k < a.cols(); ++k) {
        std::int64_t in_a = 0, in_b = 0;
        for (auto m = row_base; m < rows; ++m)
            in_a += a.at(static_cast<std::size_t>(m), k) != 0;
        for (auto j = col_base; j < cols; ++j)
            in_b += b.at(k, static_cast<std::size_t>(j)) != 0;
        n += in_a * in_b;
    }
    return n;
}

TEST_P(ScheduleEquivalence, DualPreprocessedReplaysToReferenceGemm)
{
    const auto cfg = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1,
                                             GetParam().shuffle);
    Shuffler sh(cfg.shuffle, kShape.k0);
    for (std::int64_t col_base = 0;
         col_base < static_cast<std::int64_t>(b_.cols());
         col_base += kShape.n0) {
        TileViewB vb(b_, kShape, col_base);
        auto stream = preprocessB(vb, cfg.b, sh, false);
        for (std::int64_t row_base = 0;
             row_base < static_cast<std::int64_t>(a_.rows());
             row_base += kShape.m0) {
            TileViewA va(a_, kShape, row_base);
            auto dual = scheduleDual(va, vb, cfg, sh, &stream, 9.0,
                                     true);
            const std::int64_t pairs =
                tilePairs(a_, b_, row_base, col_base);
            EXPECT_EQ(dual.effectualPairs, pairs);
            EXPECT_EQ(static_cast<std::int64_t>(dual.ops.size()), pairs);
            auto got = replayDualSchedule(dual.ops, a_, b_, row_base,
                                          col_base, kShape);
            auto want = referenceTile(a_, b_, row_base, col_base,
                                      kShape);
            EXPECT_EQ(got, want)
                << "row " << row_base << " col " << col_base;
        }
    }
}

TEST_P(ScheduleEquivalence, DualWiderWindowsStayCorrect)
{
    const RoutingConfig configs[] = {
        RoutingConfig::sparseAB(1, 1, 0, 3, 1, 1, GetParam().shuffle),
        RoutingConfig::sparseAB(0, 0, 0, 4, 0, 2, GetParam().shuffle),
        RoutingConfig::sparseAB(2, 0, 1, 2, 0, 0, GetParam().shuffle),
    };
    for (const auto &cfg : configs) {
        Shuffler sh(cfg.shuffle, kShape.k0);
        TileViewA va(a_, kShape, 0);
        TileViewB vb(b_, kShape, 0);
        auto stream = preprocessB(vb, cfg.b, sh, false);
        auto dual = scheduleDual(va, vb, cfg, sh, &stream, 16.0, true);
        auto got = replayDualSchedule(dual.ops, a_, b_, 0, 0, kShape);
        auto want = referenceTile(a_, b_, 0, 0, kShape);
        EXPECT_EQ(got, want) << cfg.str();
    }
}

// --- Dual engine, on-the-fly (TensorDash) -----------------------------

TEST_P(ScheduleEquivalence, DualOnTheFlyReplaysToReferenceGemm)
{
    const auto cfg = RoutingConfig::sparseAB(3, 1, 0, 3, 1, 0, false,
                                             /*preprocess_b=*/false);
    Shuffler sh(cfg.shuffle, kShape.k0);
    TileViewA va(a_, kShape, 0);
    TileViewB vb(b_, kShape, 0);
    auto dual = scheduleDual(va, vb, cfg, sh, nullptr, 4.0, true);
    auto got = replayDualSchedule(dual.ops, a_, b_, 0, 0, kShape);
    auto want = referenceTile(a_, b_, 0, 0, kShape);
    EXPECT_EQ(got, want);
}

// --- Timing sanity across the same sweep -------------------------------

TEST_P(ScheduleEquivalence, SparseCyclesNeverExceedDenseAndRespectIdeal)
{
    const auto &s = GetParam();
    Shuffler sh(s.shuffle, kShape.k0);
    const auto dense_steps = stepsForK(s.k, kShape.k0);

    const Borrow db{4, 0, 1};
    TileViewB vb(b_, kShape, 0);
    auto stream = preprocessB(vb, db, sh, false);
    EXPECT_LE(stream.cycles(), dense_steps);
    // Ideal bound: cannot beat window depth or the nnz of the most
    // loaded stream slot.
    EXPECT_GE(stream.cycles() * (1 + db.d1), dense_steps == 0
                                                 ? 0
                                                 : dense_steps -
                                                       (1 + db.d1));

    const Borrow da{2, 1, 0};
    TileViewA va(a_, kShape, 0);
    auto a_result = scheduleA(va, da, sh, 3.0, false);
    EXPECT_LE(a_result.stats.cycles, dense_steps);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScheduleEquivalence,
                         testing::ValuesIn(kScenarios), scenarioName);

} // namespace
} // namespace griffin
