/**
 * @file
 * Tests for the GEMM-level cycle simulator: speedup bounds, sampling
 * accuracy, bandwidth effects, category-driven morphing, the physical
 * bound every engine's compute cycles must respect, the workset's
 * queue memo (a shared memo changes no result), and the workset's
 * drawn column tiles (the same results as whole B).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/presets.hh"
#include "baselines/sparten.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sched/window_scheduler.hh"
#include "sim/gemm_sim.hh"
#include "tensor/sparsity.hh"
#include "tensor/workset.hh"

namespace griffin {
namespace {

struct Tensors
{
    MatrixI8 a;
    MatrixI8 b;
};

Tensors
makeTensors(std::int64_t m, std::int64_t k, std::int64_t n,
            double a_sp, double b_sp, std::uint64_t seed)
{
    Rng rng(seed);
    return {randomSparse(static_cast<std::size_t>(m),
                         static_cast<std::size_t>(k), a_sp, rng),
            randomSparse(static_cast<std::size_t>(k),
                         static_cast<std::size_t>(n), b_sp, rng)};
}

TEST(GemmSim, DenseBaselineMatchesClosedForm)
{
    auto t = makeTensors(64, 256, 64, 0.0, 0.0, 11);
    auto r = simulateGemm(t.a, t.b, denseBaseline(), DnnCategory::Dense);
    EXPECT_EQ(r.computeCycles, r.denseCycles);
    EXPECT_EQ(r.denseCycles, 16 * 4 * 16);
    EXPECT_DOUBLE_EQ(r.speedup(), 1.0);
    EXPECT_EQ(r.denseOps, 64 * 256 * 64);
    EXPECT_EQ(countEffectualOps(t.a, t.b), r.denseOps);
}

TEST(GemmSim, SparseBSpeedupWithinIdealBound)
{
    auto t = makeTensors(32, 512, 32, 0.0, 0.8, 12);
    auto r = simulateGemm(t.a, t.b, sparseBStar(),
                          DnnCategory::B);
    // Ideal bound is the window depth 1 + db1 = 5.
    EXPECT_GT(r.speedup(), 1.3);
    EXPECT_LE(r.speedup(), 5.0);
}

TEST(GemmSim, SparseBOnDenseDataIsNeutral)
{
    auto t = makeTensors(16, 256, 32, 0.0, 0.0, 13);
    auto r = simulateGemm(t.a, t.b, sparseBStar(),
                          DnnCategory::Dense);
    EXPECT_EQ(r.computeCycles, r.denseCycles);
}

TEST(GemmSim, SparseASpeedupTracksActivationSparsity)
{
    auto t = makeTensors(64, 512, 32, 0.5, 0.0, 14);
    auto r = simulateGemm(t.a, t.b, sparseAStar(),
                          DnnCategory::A);
    EXPECT_GT(r.speedup(), 1.2);
    EXPECT_LE(r.speedup(), 3.0); // window depth 1 + da1 = 3
}

TEST(GemmSim, DualSpeedupCompoundsBothSparsities)
{
    auto t = makeTensors(32, 512, 32, 0.5, 0.8, 15);
    auto dual = simulateGemm(t.a, t.b, sparseABStar(),
                             DnnCategory::AB);
    auto b_only = simulateGemm(t.a, t.b, sparseBStar(),
                               DnnCategory::B);
    EXPECT_GT(dual.speedup(), b_only.speedup());
    EXPECT_LE(dual.speedup(), 9.0); // L = (1+2)(1+2)
}

TEST(GemmSim, MoreSparsityNeverSlowsTheSameArch)
{
    const auto arch = sparseBStar();
    double prev = 0.0;
    for (double sp : {0.0, 0.4, 0.7, 0.9}) {
        auto t = makeTensors(16, 512, 32, 0.0, sp, 16);
        auto r = simulateGemm(t.a, t.b, arch, DnnCategory::B);
        EXPECT_GE(r.speedup() + 0.05, prev) << "sparsity " << sp;
        prev = r.speedup();
    }
}

TEST(GemmSim, GriffinMorphsToWiderWindowOnSingleSparse)
{
    // On a weight-only workload Griffin (conf.B window 9) must beat
    // the rigid dual design (effective window 3 on the B side).
    auto t = makeTensors(16, 768, 32, 0.0, 0.9, 17);
    auto rigid = simulateGemm(t.a, t.b, sparseABStar(),
                              DnnCategory::B);
    auto hybrid = simulateGemm(t.a, t.b, griffinArch(),
                               DnnCategory::B);
    EXPECT_GT(hybrid.speedup(), rigid.speedup());
}

TEST(GemmSim, SamplingApproximatesExact)
{
    auto t = makeTensors(128, 256, 128, 0.5, 0.8, 18);
    SimOptions exact;
    auto full = simulateGemm(t.a, t.b, sparseABStar(),
                             DnnCategory::AB, exact);
    SimOptions sampled;
    sampled.sampleFraction = 0.1;
    auto approx = simulateGemm(t.a, t.b, sparseABStar(),
                               DnnCategory::AB, sampled);
    EXPECT_LT(approx.simulatedTiles, full.simulatedTiles);
    const double rel =
        std::abs(static_cast<double>(approx.computeCycles) -
                 static_cast<double>(full.computeCycles)) /
        static_cast<double>(full.computeCycles);
    EXPECT_LT(rel, 0.10);
}

TEST(GemmSim, ThrottledBandwidthReducesSpeedup)
{
    auto t = makeTensors(16, 1024, 32, 0.0, 0.9, 19);
    auto arch = sparseBStar();
    auto free_bw = simulateGemm(t.a, t.b, arch, DnnCategory::B);
    arch.bwScale = 1.5;
    auto tight = simulateGemm(t.a, t.b, arch, DnnCategory::B);
    EXPECT_LT(tight.speedup(), free_bw.speedup());
    EXPECT_LE(tight.speedup(), 1.5 + 0.01);
}

TEST(GemmSim, EffectualOpsCountsPairs)
{
    MatrixI8 a(2, 4), b(4, 2);
    a.at(0, 0) = 1;
    a.at(1, 2) = 3;
    b.at(0, 0) = 5; // pairs with a(0,0) for n=0
    b.at(2, 1) = 7; // pairs with a(1,2) for n=1
    b.at(3, 0) = 2; // no nonzero a in column k=3
    EXPECT_EQ(countEffectualOps(a, b), 2);
}

TEST(GemmSimDeathTest, MacGridIsRejected)
{
    auto t = makeTensors(8, 32, 16, 0.5, 0.5, 22);
    EXPECT_EXIT(simulateGemm(t.a, t.b, sparTenAB(), DnnCategory::AB),
                testing::ExitedWithCode(exitUsageError), "SparTen simulator");
}

TEST(GemmSimDeathTest, BadSampleFractionIsFatal)
{
    auto t = makeTensors(8, 32, 16, 0.0, 0.0, 23);
    SimOptions opt;
    opt.sampleFraction = 0.0;
    EXPECT_EXIT(simulateGemm(t.a, t.b, denseBaseline(),
                             DnnCategory::Dense, opt),
                testing::ExitedWithCode(exitUsageError), "sample fraction");
}

TEST(GemmSim, DegenerateShapes)
{
    MatrixI8 a(0, 16), b(16, 8);
    auto r = simulateGemm(a, b, denseBaseline(), DnnCategory::Dense);
    EXPECT_EQ(r.computeCycles, 0);
    EXPECT_EQ(r.totalTiles, 0);
}

TEST(GemmSim, NoEngineBeatsOneEffectualMacPerMacPerCycle)
{
    // Physical bound: with every tile simulated, no engine can finish
    // in fewer cycles than its MACs need to execute every effectual
    // pair once.  Shapes straddle the 4 x 16 x 16 tile edges, and the
    // largest have 4x more outputs than SparTen has MACs; zero rates
    // include fully dense, where the bound is tightest.
    const std::int64_t ms[] = {1, 5, 64};
    const std::int64_t ks[] = {1, 17, 64, 200};
    const std::int64_t ns[] = {1, 16, 65};
    const double rates[] = {0.0, 0.0, 0.5, 0.9, 1.0};
    Rng rng(2107);
    std::uint64_t seed = 100;
    for (const std::int64_t m : ms)
        for (const std::int64_t k : ks)
            for (const std::int64_t n : ns) {
                const double a_sp = rates[rng.uniformInt(0, 4)];
                const double b_sp = rates[rng.uniformInt(0, 4)];
                const auto t = makeTensors(m, k, n, a_sp, b_sp, seed++);
                const std::int64_t effectual = countEffectualOps(t.a, t.b);
                for (const auto &arch : allPresets())
                    for (const DnnCategory cat : allCategories) {
                        const std::int64_t macs = arch.tile.macsPerCycle();
                        const auto cycles =
                            arch.style == DatapathStyle::MacGrid
                                ? simulateSparTen(t.a, t.b, arch, cat)
                                      .computeCycles
                                : simulateGemm(t.a, t.b, arch, cat)
                                      .computeCycles;
                        EXPECT_GE(cycles, (effectual + macs - 1) / macs)
                            << arch.name << " cat=" << toString(cat)
                            << " m=" << m << " k=" << k << " n=" << n;
                    }
            }
}

/** One GEMM-level consumer of a workset: a design point, its
 *  category and its sampling. */
struct MemoConsumer
{
    ArchConfig arch;
    DnnCategory cat;
    SimOptions opt;
    std::string label;
};

/**
 * Every vector-core preset on every category, the fig5 / fig6 / fig7
 * design points on their categories and four points on three other
 * tiles (so tile geometry varies on one workset), each with the
 * shuffle off and on and at two sample fractions.
 */
std::vector<MemoConsumer>
memoConsumers(std::uint64_t sim_seed)
{
    using Cats = std::vector<DnnCategory>;
    const Cats all(allCategories.begin(), allCategories.end());
    std::vector<std::pair<ArchConfig, Cats>> points;
    for (const auto &arch : allPresets())
        if (arch.style == DatapathStyle::VectorCore)
            points.push_back({arch, all});
    const int fig5[][3] = {{2, 0, 0}, {2, 1, 0}, {2, 2, 0}, {2, 0, 1},
                           {2, 1, 1}, {2, 0, 2}, {4, 0, 0}, {4, 0, 1},
                           {4, 0, 2}, {6, 0, 0}, {6, 0, 1}};
    for (const auto &p : fig5)
        points.push_back(
            {archByName(RoutingConfig::sparseB(p[0], p[1], p[2], false).str()),
             {DnnCategory::B}});
    const int fig6[][3] = {{1, 0, 0}, {1, 1, 0}, {2, 0, 0}, {2, 1, 0},
                           {3, 0, 0}, {3, 1, 0}, {2, 0, 1}, {2, 1, 1},
                           {2, 1, 2}, {4, 0, 0}, {4, 0, 1}};
    for (const auto &p : fig6)
        points.push_back(
            {archByName(RoutingConfig::sparseA(p[0], p[1], p[2], false).str()),
             {DnnCategory::A}});
    const int fig7[][6] = {{0, 0, 0, 4, 0, 1}, {0, 0, 0, 4, 0, 2},
                           {1, 0, 0, 3, 0, 1}, {1, 0, 0, 3, 1, 0},
                           {2, 0, 0, 2, 0, 0}, {2, 0, 0, 2, 0, 1},
                           {2, 0, 0, 2, 0, 2}, {2, 0, 0, 3, 0, 1},
                           {2, 0, 0, 4, 0, 1}, {2, 0, 0, 4, 0, 2}};
    for (const auto &p : fig7)
        points.push_back(
            {archByName(RoutingConfig::sparseAB(p[0], p[1], p[2], p[3],
                                                p[4], p[5], false)
                            .str()),
             {DnnCategory::AB, DnnCategory::A}});
    // Other tiles: M0 and N0 alone, K0 alone, and all three.
    for (const TileShape &tile :
         {TileShape{2, 8, 16}, TileShape{4, 16, 8}, TileShape{2, 8, 8}})
        for (const char *name :
             {"AB(2,0,0,2,0,1,off)", "AB(2,0,0,2,1,1,off)[otf]",
              "A(2,1,1,off)", "B(4,0,1,off)"}) {
            ArchConfig arch = archByName(name);
            arch.tile = tile;
            arch.name += " " + std::to_string(tile.m0) + "x" +
                         std::to_string(tile.n0) + "x" +
                         std::to_string(tile.k0);
            points.push_back({arch, all});
        }

    std::vector<MemoConsumer> out;
    for (const auto &[base, cats] : points)
        for (const bool shuffle : {false, true})
            for (const DnnCategory cat : cats)
                for (const double fraction : {0.25, 1.0}) {
                    ArchConfig arch = base;
                    arch.routing.shuffle = shuffle;
                    SimOptions opt;
                    opt.sampleFraction = fraction;
                    opt.minSampledTiles = 2;
                    opt.seed = sim_seed;
                    out.push_back({arch, cat, opt,
                                   arch.name + " shuffle=" +
                                       (shuffle ? "on" : "off") + " cat=" +
                                       toString(cat) + " sample=" +
                                       std::to_string(fraction)});
                }
    return out;
}

bool
sameResult(const GemmSimResult &x, const GemmSimResult &y)
{
    return x.denseCycles == y.denseCycles &&
           x.computeCycles == y.computeCycles && x.denseOps == y.denseOps &&
           x.effectualOps == y.effectualOps &&
           x.sched.cycles == y.sched.cycles && x.sched.ops == y.sched.ops &&
           x.sched.ownOps == y.sched.ownOps &&
           x.sched.stolenOps == y.sched.stolenOps &&
           x.sched.idleSlotCycles == y.sched.idleSlotCycles &&
           x.sched.bwLimitedCycles == y.sched.bwLimitedCycles &&
           x.simulatedTiles == y.simulatedTiles &&
           x.totalTiles == y.totalTiles;
}

bool
sameQueues(const SlotQueues &x, const SlotQueues &y)
{
    if (x.wordsPerStep() != y.wordsPerStep() ||
        x.grid().steps != y.grid().steps)
        return false;
    for (std::int64_t t = 0; t < x.grid().steps; ++t)
        for (std::int64_t i = 0; i < x.wordsPerStep(); ++i)
            if (x.stepWords(t)[i] != y.stepWords(t)[i])
                return false;
    return true;
}

WorksetParams
memoParams()
{
    // k and n off the tile edges of both geometries.
    WorksetParams p;
    p.m = 32;
    p.k = 200;
    p.n = 72;
    p.weightSparsity = 0.6;
    p.actSparsity = 0.5;
    p.weightLaneBias = 0.5;
    p.actRunLength = 2.0;
    p.seed = 2522;
    return p;
}

TEST(QueueMemo, SharedMemoChangesNoResultInEitherOrder)
{
    // Every consumer runs through one deferred workset's memo (and its
    // drawn column tiles), first to last and last to first, and must
    // match its own run on a fresh memo over whole matrices.
    const LayerWorkset eager = generateLayerWorkset(memoParams());
    const LayerWorkset forward(memoParams());
    const LayerWorkset reverse(memoParams());
    const auto consumers = memoConsumers(forward.simSeed);
    std::vector<GemmSimResult> fresh;
    for (const auto &c : consumers)
        fresh.push_back(simulateGemm(eager.a, eager.b, c.arch, c.cat,
                                     c.opt));
    std::vector<std::string> failed;
    for (std::size_t i = 0; i < consumers.size(); ++i) {
        const auto &c = consumers[i];
        if (!sameResult(simulateGemm(forward, c.arch, c.cat, c.opt),
                        fresh[i]))
            failed.push_back("forward " + c.label);
    }
    for (std::size_t i = consumers.size(); i-- > 0;) {
        const auto &c = consumers[i];
        if (!sameResult(simulateGemm(reverse, c.arch, c.cat, c.opt),
                        fresh[i]))
            failed.push_back("reverse " + c.label);
    }
    std::string first;
    for (std::size_t i = 0; i < failed.size() && i < 5; ++i)
        first += "\n  " + failed[i];
    EXPECT_TRUE(failed.empty())
        << failed.size() << " of " << 2 * consumers.size()
        << " shared-memo runs differ from a fresh memo:" << first;
    // The memo shared queues, and which ones it built does not depend
    // on the order.
    EXPECT_LT(forward.memo.builds() * 10, forward.memo.requests());
    EXPECT_EQ(forward.memo.builds(), reverse.memo.builds());
    EXPECT_EQ(forward.memo.requests(), reverse.memo.requests());
}

TEST(QueueMemo, OneBuildPerSideTileGeometryAndShuffle)
{
    const LayerWorkset ws = generateLayerWorkset(memoParams());
    QueueMemo memo;
    const TileShape wide{4, 16, 16}, narrow{2, 16, 16}, short_k{4, 16, 8};
    const Shuffler off(false, 16), on(true, 16), off8(false, 8);
    const SlotQueues &base = memo.get(TileViewA(ws.a, wide, 0), off);
    EXPECT_EQ(&memo.get(TileViewA(ws.a, wide, 0), off), &base);
    const SlotQueues *others[] = {
        &memo.get(TileViewA(ws.a, wide, 0), on),
        &memo.get(TileViewA(ws.a, narrow, 0), off),
        &memo.get(TileViewA(ws.a, short_k, 0), off8),
        &memo.get(TileViewA(ws.a, wide, 4), off),
        &memo.get(TileViewB(ws.b, wide, 0), off),
    };
    for (const SlotQueues *q : others)
        EXPECT_NE(q, &base);
    EXPECT_EQ(memo.requests(), 7);
    EXPECT_EQ(memo.builds(), 6);
    // A memoized queue holds what tileQueues builds.
    Arena arena;
    const TileViewB vb(ws.b, wide, 16);
    EXPECT_TRUE(sameQueues(memo.get(vb, on), tileQueues(vb, on, arena)));
}

TEST(QueueMemo, DrawnTilesAreNamedByTheirColumnInB)
{
    // A drawn column tile starts at column 0 of its own matrix, so a
    // memo keyed by the offset in the backing matrix would hand tile 1
    // tile 0's queues.  Keyed by the column in B, each gets its own,
    // equal to the queues of those columns of whole B.
    const LayerWorkset deferred(memoParams());
    const LayerWorkset eager = generateLayerWorkset(memoParams());
    const TileShape shape{4, 16, 16};
    const Shuffler off(false, 16);
    const std::vector<TileViewB> tiles = deferred.bTiles({0, 1}, shape);
    ASSERT_EQ(tiles.size(), 2u);
    EXPECT_EQ(tiles[0].matrixCol(), 0);
    EXPECT_EQ(tiles[1].matrixCol(), 0);
    EXPECT_EQ(tiles[1].unitBase(), 16);
    const SlotQueues &first = deferred.memo.get(tiles[0], off);
    const SlotQueues &second = deferred.memo.get(tiles[1], off);
    EXPECT_EQ(deferred.memo.builds(), 2);
    EXPECT_FALSE(sameQueues(first, second));
    Arena arena;
    EXPECT_TRUE(sameQueues(
        first, tileQueues(TileViewB(eager.b, shape, 0), off, arena)));
    EXPECT_TRUE(sameQueues(
        second, tileQueues(TileViewB(eager.b, shape, 16), off, arena)));
    EXPECT_EQ(deferred.b.size(), 0u);
    EXPECT_EQ(deferred.drawnBTiles(), 2);
    EXPECT_EQ(deferred.generatedElements(), 200 * 32);
}

TEST(GemmSim, DrawnColumnTilesMatchTheWholeMatrix)
{
    // A deferred workset draws only the sampled column tiles of B; its
    // simulateGemm must equal the two-matrix form on the eager
    // workset's whole matrices.  Layers with n off the 16-column tile
    // (ragged last tile) and narrower than one tile; Sparse.B,
    // preprocessed Sparse.AB and on-the-fly TDash.AB.  Shuffle off
    // then on over one deferred workset: the second run reads the
    // tiles the first drew and draws none.
    const struct
    {
        ArchConfig arch;
        DnnCategory cat;
    } points[] = {{sparseBStar(), DnnCategory::B},
                  {sparseABStar(), DnnCategory::AB},
                  {tdashAB(), DnnCategory::AB}};
    for (const std::int64_t n : {72, 37, 5}) {
        WorksetParams p = memoParams();
        p.n = n;
        const LayerWorkset eager = generateLayerWorkset(p);
        for (const auto &point : points) {
            const LayerWorkset deferred(p);
            std::int64_t drawn = 0;
            for (const bool shuffle : {false, true}) {
                ArchConfig arch = point.arch;
                arch.routing.shuffle = shuffle;
                SimOptions opt;
                opt.sampleFraction = 0.25;
                opt.minSampledTiles = 2;
                opt.seed = eager.simSeed;
                const std::string label = arch.name + " n=" +
                                          std::to_string(n) + " shuffle=" +
                                          (shuffle ? "on" : "off");
                EXPECT_TRUE(sameResult(
                    simulateGemm(deferred, arch, point.cat, opt),
                    simulateGemm(eager.a, eager.b, arch, point.cat, opt)))
                    << label;
                if (!shuffle)
                    drawn = deferred.drawnBTiles();
                EXPECT_EQ(deferred.drawnBTiles(), drawn) << label;
            }
            EXPECT_GT(drawn, 0) << point.arch.name << " n=" << n;
            EXPECT_EQ(deferred.b.size(), 0u) << point.arch.name;
        }
    }
}

} // namespace
} // namespace griffin
