/**
 * @file
 * Focused tests for the asynchronous two-level dual-sparse engine:
 * per-column independence, the shared ABUF residency window, the
 * bandwidth frontier, and the downgrade behaviours of Table III.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sched/b_preprocess.hh"
#include "sched/dual_scheduler.hh"
#include "sched/verify.hh"
#include "tensor/sparsity.hh"

namespace griffin {
namespace {

const TileShape kShape{};

DualSchedule
runDual(const MatrixI8 &a, const MatrixI8 &b, const RoutingConfig &cfg,
        double bw, bool record = false)
{
    Shuffler sh(cfg.shuffle, kShape.k0);
    TileViewA va(a, kShape, 0);
    TileViewB vb(b, kShape, 0);
    auto stream = preprocessB(vb, cfg.b, sh, false);
    return scheduleDual(va, vb, cfg, sh, &stream, bw, record);
}

TEST(DualAsync, DenseOperandsRunAtDenseRate)
{
    Rng rng(71);
    auto a = randomSparse(4, 256, 0.0, rng);
    auto b = randomSparse(256, 16, 0.0, rng);
    const auto cfg = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, true);
    auto dual = runDual(a, b, cfg, 9.0);
    EXPECT_EQ(dual.cycles, 16); // = K1: nothing to skip
}

TEST(DualAsync, SpeedupCompoundsAcrossStages)
{
    Rng rng(72);
    auto a = randomSparse(4, 1024, 0.5, rng);
    auto b = randomSparse(1024, 16, 0.8, rng);
    const auto cfg = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, true);
    auto dual = runDual(a, b, cfg, 9.0);
    Shuffler sh(true, kShape.k0);
    TileViewB vb(b, kShape, 0);
    auto stream = preprocessB(vb, cfg.b, sh, false);
    // Runtime must beat the B-only compressed stream length (the
    // A-side skip is stage 2's whole point) but cannot beat the
    // densest column's pair count.
    EXPECT_LT(dual.cycles, stream.cycles());
    EXPECT_GE(dual.cycles,
              dual.effectualPairs / (kShape.k0 * kShape.m0 *
                                     kShape.n0));
}

TEST(DualAsync, ColumnsAdvanceIndependently)
{
    // Column 0 dense in B, column 1 nearly empty: an asynchronous
    // engine finishes in ~the dense column's time, not the sum.
    Rng rng(73);
    auto a = randomSparse(4, 512, 0.0, rng);
    MatrixI8 b(512, 16);
    for (std::size_t k = 0; k < 512; ++k) {
        b.at(k, 0) = 1;                  // column 0 fully dense
        if (k % 16 == 0)
            b.at(k, 1) = 1;              // column 1 sparse
    }
    const auto cfg = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, true);
    auto dual = runDual(a, b, cfg, 9.0);
    // Dense column needs 32 entries; the whole tile should not need
    // meaningfully more than that.
    EXPECT_LE(dual.cycles, 40);
}

TEST(DualAsync, BandwidthFrontierThrottles)
{
    Rng rng(74);
    auto a = randomSparse(4, 1024, 0.6, rng);
    auto b = randomSparse(1024, 16, 0.9, rng);
    const auto cfg = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, true);
    auto fast = runDual(a, b, cfg, 9.0);
    auto slow = runDual(a, b, cfg, 1.0);
    EXPECT_GT(slow.cycles, fast.cycles);
    EXPECT_GT(slow.stage2.bwLimitedCycles, 0);
    // 1 raw step/cycle cannot finish faster than the raw step count
    // minus the prefilled window.
    EXPECT_GE(slow.cycles, 64 - 9);
}

TEST(DualAsync, DowngradeOnDenseAStaysWithinSparseBWindow)
{
    // Table III: on DNN.B the rigid dual design degrades toward
    // Sparse.B(db1,0,db3).  Every non-empty stream entry of a column
    // costs one cycle (dense A skips nothing), but columns retire
    // their own bubbles independently, so the tile lands between the
    // most loaded column's entry count and the synchronized stream
    // length.
    Rng rng(75);
    auto a = randomSparse(4, 1024, 0.0, rng);
    auto b = randomSparse(1024, 16, 0.85, rng);
    const auto cfg = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, true);
    Shuffler sh(cfg.shuffle, kShape.k0);
    TileViewB vb(b, kShape, 0);
    auto stream = preprocessB(vb, cfg.b, sh, false);
    TileViewA va(a, kShape, 0);
    auto dual = scheduleDual(va, vb, cfg, sh, &stream, 9.0, false);
    EXPECT_LE(dual.cycles, stream.cycles());
    // Lower bounds: lanes may drain different BBUF entries in one
    // cycle (that is what the BMUX fan-in buys), but a column's window
    // holds only 1+da1 entries, and no slot can beat its own pair
    // count (dense A pairs every element with all 4 rows).
    std::int64_t max_col_entries = 0;
    std::int64_t max_slot_pairs = 0;
    for (int j = 0; j < stream.cols(); ++j) {
        std::int64_t entries = 0;
        for (int l = 0; l < stream.lanes(); ++l) {
            std::int64_t slot_pairs = 0;
            for (std::int64_t c = 0; c < stream.cycles(); ++c)
                slot_pairs += stream.flatK(c, l, j) >= 0;
            max_slot_pairs = std::max(max_slot_pairs, slot_pairs);
        }
        for (std::int64_t c = 0; c < stream.cycles(); ++c) {
            for (int l = 0; l < stream.lanes(); ++l) {
                if (stream.flatK(c, l, j) >= 0) {
                    ++entries;
                    break;
                }
            }
        }
        max_col_entries = std::max(max_col_entries, entries);
    }
    const int bbuf_depth = 1 + cfg.a.d1;
    EXPECT_GE(dual.cycles,
              (max_col_entries + bbuf_depth - 1) / bbuf_depth);
    EXPECT_GE(dual.cycles, max_slot_pairs);
}

TEST(DualAsync, RecordedOpsCoverEveryEffectualPair)
{
    Rng rng(76);
    auto a = randomSparse(4, 256, 0.4, rng);
    auto b = randomSparse(256, 16, 0.7, rng);
    const auto cfg = RoutingConfig::sparseAB(2, 1, 1, 2, 1, 1, true);
    auto dual = runDual(a, b, cfg, 9.0, true);
    // The pairs counted from the matrices (one tile): A[m][k] and
    // B[k][n] both nonzero.
    std::int64_t pairs = 0;
    for (std::size_t k = 0; k < a.cols(); ++k) {
        std::int64_t in_a = 0, in_b = 0;
        for (std::size_t m = 0; m < a.rows(); ++m)
            in_a += a.at(m, k) != 0;
        for (std::size_t j = 0; j < b.cols(); ++j)
            in_b += b.at(k, j) != 0;
        pairs += in_a * in_b;
    }
    EXPECT_EQ(dual.effectualPairs, pairs);
    EXPECT_EQ(static_cast<std::int64_t>(dual.ops.size()), pairs);
    auto got = replayDualSchedule(dual.ops, a, b, 0, 0, kShape);
    auto want = referenceTile(a, b, 0, 0, kShape);
    EXPECT_EQ(got, want);
}

TEST(DualAsync, AllZeroTileFinishesInstantly)
{
    MatrixI8 a(4, 128);
    Rng rng(77);
    auto b = randomSparse(128, 16, 0.5, rng);
    const auto cfg = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, true);
    auto dual = runDual(a, b, cfg, 9.0);
    EXPECT_EQ(dual.cycles, 0);
    EXPECT_EQ(dual.effectualPairs, 0);
}

TEST(DualAsync, WiderAWindowNeverHurts)
{
    Rng rng(78);
    auto a = randomSparse(4, 768, 0.5, rng);
    auto b = randomSparse(768, 16, 0.8, rng);
    std::int64_t prev = std::numeric_limits<std::int64_t>::max();
    for (int da1 : {0, 1, 2, 3}) {
        const auto cfg =
            RoutingConfig::sparseAB(da1, 0, 0, 2, 0, 1, true);
        auto dual = runDual(a, b, cfg, 16.0);
        EXPECT_LE(dual.cycles, prev) << "da1 " << da1;
        prev = dual.cycles;
    }
}

TEST(DualAsyncDeathTest, MissingStreamPanics)
{
    Rng rng(79);
    auto a = randomSparse(4, 128, 0.5, rng);
    auto b = randomSparse(128, 16, 0.5, rng);
    TileViewA va(a, kShape, 0);
    TileViewB vb(b, kShape, 0);
    Shuffler sh(false, kShape.k0);
    const auto cfg = RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, false);
    EXPECT_DEATH(scheduleDual(va, vb, cfg, sh, nullptr, 9.0, false),
                 "needs the B");
}

} // namespace
} // namespace griffin
