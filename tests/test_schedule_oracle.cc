/**
 * @file
 * Exact-equivalence oracle for the bit-parallel scheduling engines.
 *
 * Every engine runs on seeded random tiles next to the CSR-queue
 * reference engines in tests/support/csr_schedulers.*, and must match
 * them exactly: all six ScheduleStats fields, cycles and effectual
 * pairs, every recorded op in order, and every B stream cell.  Apart
 * from the reference, every engine must also run exactly the elements
 * its tile queues (work conservation) in no fewer cycles than its
 * slots allow (the physical bound).  Inputs
 * cover steals on every axis, shuffle off and on (group sizes 4 and
 * 16), binding bandwidth caps, all-zero / dense / ragged tiles, the
 * schedule visualizer's k0 = 4, n0 = 2, m0 = 1 geometry,
 * k0 = 32, m0 = 4 (128 slots per dual column), and k0 = 24, m0 = 3,
 * whose slot runs straddle 64-bit words.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "common/arena.hh"
#include "common/rng.hh"
#include "sched/a_arbiter.hh"
#include "sched/b_preprocess.hh"
#include "sched/dual_scheduler.hh"
#include "sched/window_scheduler.hh"
#include "support/csr_schedulers.hh"
#include "support/unbalanced_sparse.hh"
#include "tensor/sparsity.hh"

namespace griffin {
namespace {

constexpr int kTiles = 200;

const TileShape kShapes[] = {
    {4, 16, 16}, // the paper's (M0, N0, K0)
    {1, 2, 4},   // schedule_visualizer
    {4, 8, 32},  // 128 slots per dual column
    {3, 5, 24},  // slot runs straddling 64-bit words on every axis
};

/** One seeded random tile pair and the routing to run it under. */
struct Case
{
    TileShape shape;
    MatrixI8 a;
    MatrixI8 b;
    bool shuffle = false;
    int group = 4;
    Borrow da;
    Borrow db;
    double bw = 1.0;

    Shuffler shuffler() const { return Shuffler(shuffle, shape.k0, group); }
    TileViewA va() const { return TileViewA(a, shape, 0); }
    TileViewB vb() const { return TileViewB(b, shape, 0); }

    std::string
    describe() const
    {
        return "k0=" + std::to_string(shape.k0) + " n0=" +
               std::to_string(shape.n0) + " m0=" +
               std::to_string(shape.m0) + " K=" +
               std::to_string(a.cols()) + " shuffle=" +
               (shuffle ? std::to_string(group) : "off") + " da=(" +
               std::to_string(da.d1) + "," + std::to_string(da.d2) + "," +
               std::to_string(da.d3) + ") db=(" + std::to_string(db.d1) +
               "," + std::to_string(db.d2) + "," + std::to_string(db.d3) +
               ") bw=" + std::to_string(bw);
    }
};

/** Zero rate: mostly mid-range, with all-zero and dense tiles mixed in. */
double
drawSparsity(Rng &rng)
{
    switch (rng.uniformInt(0, 9)) {
      case 0:
        return 1.0;
      case 1:
        return 0.0;
      default:
        return rng.uniform01();
    }
}

/** i.i.d. or row-unbalanced (ragged lane loads) zeros. */
MatrixI8
drawMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    const double sparsity = drawSparsity(rng);
    if (sparsity > 0.0 && sparsity < 1.0 && rng.bernoulli(0.5))
        return unbalancedSparse(rows, cols, sparsity, 0.4, rng);
    return randomSparse(rows, cols, sparsity, rng);
}

Case
drawCase(std::uint64_t seed)
{
    Rng rng(seed);
    Case c;
    c.shape = kShapes[rng.uniformInt(0, 3)];
    // Ragged on every axis: K rarely a multiple of k0, partial row and
    // column tiles.
    const auto k = static_cast<std::size_t>(rng.uniformInt(1, 12 * c.shape.k0));
    const auto m = static_cast<std::size_t>(rng.uniformInt(1, c.shape.m0));
    const auto n = static_cast<std::size_t>(rng.uniformInt(1, c.shape.n0));
    c.a = drawMatrix(m, k, rng);
    c.b = drawMatrix(k, n, rng);
    c.shuffle = rng.bernoulli(0.6);
    c.group = c.shape.k0 % 16 == 0 && rng.bernoulli(0.5) ? 16 : 4;
    auto borrow = [&] {
        return Borrow{static_cast<int>(rng.uniformInt(0, 6)),
                      static_cast<int>(rng.uniformInt(0, 3)),
                      static_cast<int>(rng.uniformInt(0, 3))};
    };
    c.da = borrow();
    c.db = borrow();
    const double caps[] = {0.25, 0.5, 1.0, 1.5, 3.0, 9.0};
    c.bw = caps[rng.uniformInt(0, 5)];
    return c;
}

void
expectSameStats(const ScheduleStats &got, const ScheduleStats &want,
                const std::string &what)
{
    EXPECT_EQ(got.cycles, want.cycles) << what;
    EXPECT_EQ(got.ops, want.ops) << what;
    EXPECT_EQ(got.ownOps, want.ownOps) << what;
    EXPECT_EQ(got.stolenOps, want.stolenOps) << what;
    EXPECT_EQ(got.idleSlotCycles, want.idleSlotCycles) << what;
    EXPECT_EQ(got.bwLimitedCycles, want.bwLimitedCycles) << what;
}

void
expectSameOps(const std::vector<ScheduledOp> &got,
              const std::vector<ScheduledOp> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        const auto &g = got[i];
        const auto &w = want[i];
        ASSERT_TRUE(g.step == w.step && g.lane == w.lane &&
                    g.row == w.row && g.col == w.col &&
                    g.consumerLane == w.consumerLane &&
                    g.consumerRow == w.consumerRow &&
                    g.consumerCol == w.consumerCol && g.cycle == w.cycle)
            << what << ": op " << i << " differs";
    }
}

void
expectSameDual(const DualSchedule &got, const DualSchedule &want,
               const std::string &what)
{
    EXPECT_EQ(got.cycles, want.cycles) << what;
    EXPECT_EQ(got.effectualPairs, want.effectualPairs) << what;
    expectSameStats(got.stage1, want.stage1, what + " stage1");
    expectSameStats(got.stage2, want.stage2, what + " stage2");
    ASSERT_EQ(got.ops.size(), want.ops.size()) << what;
    for (std::size_t i = 0; i < got.ops.size(); ++i) {
        const auto &g = got.ops[i];
        const auto &w = want.ops[i];
        ASSERT_TRUE(g.flatK == w.flatK && g.m == w.m &&
                    g.homeCol == w.homeCol && g.cycle == w.cycle)
            << what << ": op " << i << " differs";
    }
}

/** Nonzero elements of a whole matrix (each case's tile). */
std::int64_t
nonzeros(const MatrixI8 &x)
{
    std::int64_t n = 0;
    for (std::size_t r = 0; r < x.rows(); ++r)
        for (std::size_t c = 0; c < x.cols(); ++c)
            n += x.at(r, c) != 0;
    return n;
}

/** Effectual pairs of a whole GEMM: A[m][k] and B[k][n] both nonzero. */
std::int64_t
effectualPairs(const MatrixI8 &a, const MatrixI8 &b)
{
    std::int64_t n = 0;
    for (std::size_t k = 0; k < a.cols(); ++k) {
        std::int64_t col = 0, row = 0;
        for (std::size_t m = 0; m < a.rows(); ++m)
            col += a.at(m, k) != 0;
        for (std::size_t j = 0; j < b.cols(); ++j)
            row += b.at(k, j) != 0;
        n += col * row;
    }
    return n;
}

/** Work conservation and the physical bound of one pass: it ran every
 *  queued element, and each of its `slots` runs at most one a cycle. */
void
expectConservedAndBounded(const ScheduleStats &stats, std::int64_t cycles,
                          std::int64_t queued, std::int64_t slots,
                          const std::string &what)
{
    EXPECT_EQ(stats.ops, queued) << what;
    EXPECT_GE(cycles, (queued + slots - 1) / slots) << what;
}

TEST(ScheduleOracle, EveryEngineRunsWhatItQueuesWithinItsSlots)
{
    for (int t = 0; t < kTiles; ++t) {
        const Case c = drawCase(0xc000 + static_cast<std::uint64_t>(t));
        const std::string what = c.describe();
        const auto sh = c.shuffler();
        const auto va = c.va();
        const auto vb = c.vb();
        const std::int64_t lanes = c.shape.k0;
        const std::int64_t a_slots = lanes * c.shape.m0;
        const std::int64_t b_slots = lanes * c.shape.n0;
        const std::int64_t pairs = effectualPairs(c.a, c.b);

        const auto a = scheduleA(va, c.da, sh, c.bw, false).stats;
        expectConservedAndBounded(a, a.cycles, nonzeros(c.a), a_slots,
                                  what + " scheduleA");
        const BSchedule stream = preprocessB(vb, c.db, sh, false);
        expectConservedAndBounded(stream.stats(), stream.cycles(),
                                  nonzeros(c.b), b_slots,
                                  what + " preprocessB");
        Arena &arena = workArena();
        ArenaScope scope(arena);
        const auto b = scheduleB(tileQueues(vb, sh, arena), c.db);
        expectConservedAndBounded(b, b.cycles, nonzeros(c.b), b_slots,
                                  what + " scheduleB");
        for (const bool pre : {true, false}) {
            const auto cfg = RoutingConfig::sparseAB(
                c.da.d1, c.da.d2, c.da.d3, c.db.d1, c.db.d2, c.db.d3,
                c.shuffle, pre);
            const auto dual =
                scheduleDual(va, vb, cfg, sh, pre ? &stream : nullptr, c.bw,
                             false);
            const std::string flavour =
                what + (pre ? " preprocessed dual" : " on-the-fly dual");
            EXPECT_EQ(dual.effectualPairs, pairs) << flavour;
            expectConservedAndBounded(dual.stage2, dual.cycles, pairs,
                                      a_slots * c.shape.n0, flavour);
        }
    }
}

TEST(ScheduleOracle, BPackingMatchesCsrCellForCell)
{
    std::int64_t stolen = 0;
    for (int t = 0; t < kTiles; ++t) {
        const Case c = drawCase(0xb000 + static_cast<std::uint64_t>(t));
        const std::string what = c.describe();
        const auto sh = c.shuffler();
        const auto vb = c.vb();
        const BSchedule got = preprocessB(vb, c.db, sh, true);
        const csr::BStream want = csr::preprocessB(vb, c.db, sh, true);

        expectSameStats(got.stats(), want.stats, what);
        ASSERT_EQ(got.cycles(), want.cycles) << what;
        EXPECT_EQ(got.scheduledElems(), want.elems) << what;
        EXPECT_EQ(got.lanes(), want.lanes) << what;
        EXPECT_EQ(got.cols(), want.cols) << what;
        expectSameOps(got.ops(), want.ops, what);
        for (std::int64_t cyc = 0; cyc < want.cycles; ++cyc) {
            EXPECT_EQ(got.rawEnd(cyc),
                      want.rawEnd[static_cast<std::size_t>(cyc)])
                << what << " cycle " << cyc;
            for (int j = 0; j < want.cols; ++j) {
                const auto ci =
                    static_cast<std::size_t>(cyc * want.cols + j);
                EXPECT_EQ(got.rawLo(cyc, j), want.rawLo[ci]) << what;
                EXPECT_EQ(got.rawHi(cyc, j), want.rawHi[ci]) << what;
                for (int l = 0; l < want.lanes; ++l) {
                    const auto idx = ci * static_cast<std::size_t>(
                                              want.lanes) +
                                     static_cast<std::size_t>(l);
                    ASSERT_EQ(got.flatK(cyc, l, j), want.flatk[idx])
                        << what << " cell (" << cyc << "," << l << ","
                        << j << ")";
                    ASSERT_EQ(got.homeCol(cyc, l, j), want.homecol[idx])
                        << what << " cell (" << cyc << "," << l << ","
                        << j << ")";
                }
            }
        }
        // Unrecorded packing builds the same stream.
        const BSchedule quiet = preprocessB(vb, c.db, sh, false);
        EXPECT_TRUE(quiet.ops().empty());
        expectSameStats(quiet.stats(), want.stats, what + " unrecorded");
        stolen += want.stats.stolenOps;
    }
    EXPECT_GT(stolen, 0) << "no tile exercised a steal";
}

TEST(ScheduleOracle, ScheduleBMatchesCsrStats)
{
    for (int t = 0; t < kTiles; ++t) {
        const Case c = drawCase(0x5b00 + static_cast<std::uint64_t>(t));
        const auto sh = c.shuffler();
        const auto vb = c.vb();
        Arena &arena = workArena();
        ArenaScope scope(arena);
        expectSameStats(scheduleB(tileQueues(vb, sh, arena), c.db),
                        csr::preprocessB(vb, c.db, sh, false).stats,
                        c.describe());
    }
}

TEST(ScheduleOracle, AArbiterMatchesCsr)
{
    std::int64_t stolen = 0;
    std::int64_t limited = 0;
    for (int t = 0; t < kTiles; ++t) {
        const Case c = drawCase(0xa000 + static_cast<std::uint64_t>(t));
        const std::string what = c.describe();
        const auto sh = c.shuffler();
        const auto va = c.va();
        const auto want = csr::scheduleA(va, c.da, sh, c.bw, true);
        const auto got = scheduleA(va, c.da, sh, c.bw, true);
        expectSameStats(got.stats, want.stats, what);
        expectSameOps(got.ops, want.ops, what);
        const auto quiet = scheduleA(va, c.da, sh, c.bw, false);
        EXPECT_TRUE(quiet.ops.empty());
        expectSameStats(quiet.stats, want.stats, what + " unrecorded");
        stolen += want.stats.stolenOps;
        limited += want.stats.bwLimitedCycles;
    }
    EXPECT_GT(stolen, 0) << "no tile exercised a steal";
    EXPECT_GT(limited, 0) << "no tile hit the bandwidth cap";
}

TEST(ScheduleOracle, PreprocessedDualMatchesCsr)
{
    std::int64_t stolen = 0;
    std::int64_t limited = 0;
    for (int t = 0; t < kTiles; ++t) {
        const Case c = drawCase(0xd000 + static_cast<std::uint64_t>(t));
        const auto cfg =
            RoutingConfig::sparseAB(c.da.d1, c.da.d2, c.da.d3, c.db.d1,
                                    c.db.d2, c.db.d3, c.shuffle);
        const std::string what = c.describe();
        const auto sh = c.shuffler();
        const auto va = c.va();
        const auto vb = c.vb();
        const BSchedule stream = preprocessB(vb, cfg.b, sh, false);
        const auto want =
            csr::scheduleDual(va, vb, cfg, sh, &stream, c.bw, true);
        expectSameDual(scheduleDual(va, vb, cfg, sh, &stream, c.bw, true),
                       want, what);
        auto quiet = scheduleDual(va, vb, cfg, sh, &stream, c.bw, false);
        EXPECT_TRUE(quiet.ops.empty());
        quiet.ops = want.ops;
        expectSameDual(quiet, want, what + " unrecorded");
        stolen += want.stage2.stolenOps;
        limited += want.stage2.bwLimitedCycles;
    }
    EXPECT_GT(stolen, 0) << "no tile exercised a steal";
    EXPECT_GT(limited, 0) << "no tile hit the bandwidth cap";
}

TEST(ScheduleOracle, OnTheFlyDualMatchesCsr)
{
    std::int64_t stolen = 0;
    std::int64_t limited = 0;
    for (int t = 0; t < kTiles; ++t) {
        const Case c = drawCase(0x0f00 + static_cast<std::uint64_t>(t));
        const auto cfg = RoutingConfig::sparseAB(
            c.da.d1, c.da.d2, c.da.d3, c.db.d1, c.db.d2, c.db.d3,
            c.shuffle, /*preprocess_b=*/false);
        const std::string what = c.describe();
        const auto sh = c.shuffler();
        const auto va = c.va();
        const auto vb = c.vb();
        const auto want =
            csr::scheduleDual(va, vb, cfg, sh, nullptr, c.bw, true);
        expectSameDual(scheduleDual(va, vb, cfg, sh, nullptr, c.bw, true),
                       want, what);
        auto quiet = scheduleDual(va, vb, cfg, sh, nullptr, c.bw, false);
        EXPECT_TRUE(quiet.ops.empty());
        quiet.ops = want.ops;
        expectSameDual(quiet, want, what + " unrecorded");
        stolen += want.stage2.stolenOps;
        limited += want.stage2.bwLimitedCycles;
    }
    EXPECT_GT(stolen, 0) << "no tile exercised a steal";
    EXPECT_GT(limited, 0) << "no tile hit the bandwidth cap";
}

/**
 * The take-row kernels where the engines call them, on whole tiles of
 * every shape: k0 = 16's and k0 = 32's whole-field rows, and k0 = 4's
 * and k0 = 24's fields read one at a time.  Each stream's raw extents
 * must equal a per-column reading of its take rows and steals, and
 * the unrecorded preprocessed dual engine — the one-word live-mask
 * kernel wherever m0 x k0 <= 64, and no A steals, its plain form —
 * must match the CSR reference.
 */
TEST(ScheduleOracle, TakeRowKernelsMatchThePerColumnReadingOnEveryShape)
{
    for (std::size_t s = 0; s < std::size(kShapes); ++s)
        for (int t = 0; t < 25; ++t) {
            Rng rng(0x7a4e + s * 100 + static_cast<std::uint64_t>(t));
            Case c;
            c.shape = kShapes[s];
            const auto k = static_cast<std::size_t>(
                rng.uniformInt(8 * c.shape.k0, 40 * c.shape.k0));
            c.a = drawMatrix(static_cast<std::size_t>(c.shape.m0), k, rng);
            c.b = drawMatrix(k, static_cast<std::size_t>(c.shape.n0), rng);
            c.shuffle = rng.bernoulli(0.5);
            c.group = c.shape.k0 % 16 == 0 && rng.bernoulli(0.5) ? 16 : 4;
            c.da = Borrow{static_cast<int>(rng.uniformInt(0, 4)), 0, 0};
            c.db = Borrow{static_cast<int>(rng.uniformInt(0, 6)),
                          static_cast<int>(rng.uniformInt(0, 3)),
                          static_cast<int>(rng.uniformInt(0, 3))};
            c.bw = t % 2 == 0 ? 1.0 : 0.5;
            const auto cfg =
                RoutingConfig::sparseAB(c.da.d1, c.da.d2, c.da.d3, c.db.d1,
                                        c.db.d2, c.db.d3, c.shuffle);
            const std::string what = c.describe();
            const auto sh = c.shuffler();
            const auto va = c.va();
            const auto vb = c.vb();
            const BSchedule stream = preprocessB(vb, cfg.b, sh, false);

            const int lanes = stream.lanes();
            std::int64_t end = -1;
            for (std::int64_t cyc = 0; cyc < stream.cycles(); ++cyc)
                for (int j = 0; j < stream.cols(); ++j) {
                    std::int64_t lo = -1, hi = -1;
                    for (std::int64_t d = 0; d < stream.depth(cyc); ++d)
                        if (simd::readField(stream.takes(cyc) +
                                                d * stream.takeWords(),
                                            std::int64_t{j} * lanes,
                                            lanes) != 0) {
                            lo = lo < 0 ? stream.base(cyc) + d : lo;
                            hi = stream.base(cyc) + d;
                        }
                    for (const StolenOp *k = stream.stealsBegin(cyc);
                         k != stream.stealsEnd(cyc); ++k)
                        if (k->consumer / lanes == j) {
                            lo = lo < 0 ? k->step : std::min(lo, k->step);
                            hi = std::max(hi, k->step);
                        }
                    end = std::max(end, hi);
                    ASSERT_EQ(stream.rawLo(cyc, j), lo)
                        << what << " cycle " << cyc << " column " << j;
                    ASSERT_EQ(stream.rawHi(cyc, j), hi)
                        << what << " cycle " << cyc << " column " << j;
                    if (j + 1 == stream.cols()) {
                        ASSERT_EQ(stream.rawEnd(cyc), end)
                            << what << " cycle " << cyc;
                    }
                }
            expectSameDual(
                scheduleDual(va, vb, cfg, sh, &stream, c.bw, false),
                csr::scheduleDual(va, vb, cfg, sh, &stream, c.bw, false),
                what);
        }
}

/**
 * Long tiles for the dual engines: 32 to 96 steps, so BBUF windows
 * slide far past their first fill.  A's zeros come in runs of 4 to 16
 * along k, so whole windows drain at once and PE columns drift apart.
 * Case t takes shape kShapes[t % 4] and steals on the A side (da2,
 * da3) when t / 4 is odd.
 */
Case
drawLongCase(int t)
{
    Rng rng(0x10c6 + static_cast<std::uint64_t>(t));
    Case c;
    c.shape = kShapes[t % 4];
    const auto k = static_cast<std::size_t>(
        rng.uniformInt(32 * c.shape.k0, 96 * c.shape.k0));
    const auto m = static_cast<std::size_t>(rng.uniformInt(1, c.shape.m0));
    const auto n = static_cast<std::size_t>(rng.uniformInt(1, c.shape.n0));
    // Named draws pin their order (an argument list would leave it to
    // the compiler); this is the order gcc took when they shared one.
    const auto run_length = static_cast<double>(rng.uniformInt(4, 16));
    const double sparsity = 0.3 + 0.65 * rng.uniform01();
    c.a = clusteredSparse(m, k, sparsity, run_length,
                          0x10c6 + static_cast<std::uint64_t>(t));
    c.b = drawMatrix(k, n, rng);
    c.shuffle = rng.bernoulli(0.6);
    c.group = c.shape.k0 % 16 == 0 && rng.bernoulli(0.5) ? 16 : 4;
    const bool steal = t / 4 % 2 == 1;
    c.da = Borrow{static_cast<int>(rng.uniformInt(0, 6)),
                  steal ? static_cast<int>(rng.uniformInt(0, 3)) : 0,
                  steal ? static_cast<int>(rng.uniformInt(0, 3)) : 0};
    c.db = Borrow{static_cast<int>(rng.uniformInt(0, 6)),
                  static_cast<int>(rng.uniformInt(0, 3)),
                  static_cast<int>(rng.uniformInt(0, 3))};
    const double caps[] = {0.25, 0.5, 1.0, 1.5, 3.0, 9.0};
    c.bw = caps[rng.uniformInt(0, 5)];
    return c;
}

TEST(ScheduleOracle, DualEnginesMatchCsrOnLongTiles)
{
    std::int64_t stolen = 0;
    std::int64_t limited = 0;
    for (int t = 0; t < 100; ++t) {
        const Case c = drawLongCase(t);
        const std::string what = c.describe();
        const auto sh = c.shuffler();
        const auto va = c.va();
        const auto vb = c.vb();
        const std::int64_t pairs = effectualPairs(c.a, c.b);
        for (const bool pre : {true, false}) {
            const auto cfg = RoutingConfig::sparseAB(
                c.da.d1, c.da.d2, c.da.d3, c.db.d1, c.db.d2, c.db.d3,
                c.shuffle, pre);
            const BSchedule stream = preprocessB(vb, cfg.b, sh, false);
            const BSchedule *b_stream = pre ? &stream : nullptr;
            const std::string flavour =
                what + (pre ? " preprocessed" : " on-the-fly");
            const auto want =
                csr::scheduleDual(va, vb, cfg, sh, b_stream, c.bw, true);
            EXPECT_EQ(want.effectualPairs, pairs) << flavour;
            expectSameDual(scheduleDual(va, vb, cfg, sh, b_stream, c.bw, true),
                           want, flavour);
            auto quiet = scheduleDual(va, vb, cfg, sh, b_stream, c.bw, false);
            EXPECT_TRUE(quiet.ops.empty());
            quiet.ops = want.ops;
            expectSameDual(quiet, want, flavour + " unrecorded");
            stolen += want.stage2.stolenOps;
            limited += want.stage2.bwLimitedCycles;
        }
    }
    EXPECT_GT(stolen, 0) << "no tile exercised a steal";
    EXPECT_GT(limited, 0) << "no tile hit the bandwidth cap";
}

} // namespace
} // namespace griffin
