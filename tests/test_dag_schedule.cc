/**
 * @file
 * Tests for the dataflow-DAG sequential scheduler: the edge checks of
 * NetworkSpec::validate(), the liveness evaluator, the peak-minimising
 * optimizer, and the schedule-aware accelerator plumbing.
 */

#include <gtest/gtest.h>

#include "arch/presets.hh"
#include "griffin/accelerator.hh"
#include "sched/dag_schedule.hh"
#include "workloads/network.hh"

namespace griffin {
namespace {

/** A layer whose default output buffer is exactly `bytes`. */
LayerSpec
buffer(const std::string &name, std::int64_t bytes)
{
    LayerSpec layer;
    layer.name = name;
    layer.m = bytes;
    return layer;
}

/** A -> (B, C) -> D with pinned buffer sizes. */
NetworkSpec
diamond()
{
    NetworkSpec net;
    net.name = "diamond";
    const auto a = net.addLayer(buffer("a", 100), {});
    const auto b = net.addLayer(buffer("b", 40), {a});
    const auto c = net.addLayer(buffer("c", 30), {a});
    net.addLayer(buffer("d", 10), {b, c});
    return net;
}

TEST(DagSchedule, ValidateRejectsCycles)
{
    // Every edge must point to an earlier node, so no cycle passes.
    NetworkSpec net;
    net.name = "looped";
    net.addLayer(buffer("a", 1), {});
    net.addLayer(buffer("b", 1), {0});
    net.nodes[0].inputs = {1};
    EXPECT_DEATH(net.validate(), "consumes node 1 which is not an earlier");
}

TEST(DagSchedule, ValidateRejectsDanglingAndDuplicateEdges)
{
    NetworkSpec dangling;
    dangling.name = "dangling";
    dangling.addLayer(buffer("a", 1), {});
    dangling.nodes[0].inputs = {7};
    EXPECT_DEATH(dangling.validate(), "consumes node 7 which is not an");

    NetworkSpec duplicated;
    duplicated.name = "duplicated";
    duplicated.addLayer(buffer("a", 1), {});
    duplicated.addLayer(buffer("b", 1), {0});
    duplicated.nodes[1].inputs = {0, 0};
    EXPECT_DEATH(duplicated.validate(), "lists input 0 twice");
}

TEST(DagSchedule, AddLayerRejectsForwardEdges)
{
    NetworkSpec net;
    net.name = "forward";
    EXPECT_DEATH(net.addLayer(buffer("a", 1), {0}),
                 "not an earlier node");
}

TEST(DagSchedule, DiamondLivenessIsPinned)
{
    const auto net = diamond();
    const auto decl = declarationSchedule(net);
    // a:100; b:+40; c:+30 then a frees; d: 40+30+10.
    ASSERT_EQ(decl.entryLiveBytes.size(), 4u);
    EXPECT_EQ(decl.entryLiveBytes[0], 100);
    EXPECT_EQ(decl.entryLiveBytes[1], 140);
    EXPECT_EQ(decl.entryLiveBytes[2], 170);
    EXPECT_EQ(decl.entryLiveBytes[3], 80);
    EXPECT_EQ(decl.peakBytes, 170);
    EXPECT_EQ(evaluateSchedule(net, decl.entries).peakBytes, 170);
}

TEST(DagSchedule, EvaluatorRejectsMalformedSchedules)
{
    const auto net = diamond();
    // Consumption before production.
    auto eval = evaluateSchedule(net, {{1, false}, {0, false}});
    EXPECT_FALSE(eval.ok);
    // First production flagged as recompute.
    eval = evaluateSchedule(net, {{0, true}});
    EXPECT_FALSE(eval.ok);
    // Re-production without the recompute flag.
    eval = evaluateSchedule(
        net, {{0, false}, {0, false}, {1, false}, {2, false}, {3, false}});
    EXPECT_FALSE(eval.ok);
    // A node never produced.
    eval = evaluateSchedule(net, {{0, false}, {1, false}, {2, false}});
    EXPECT_FALSE(eval.ok);
}

TEST(DagSchedule, OptimizerNeverWorseAcrossTheSuite)
{
    for (const auto &net : benchmarkSuite()) {
        const auto decl = declarationSchedule(net);
        const auto opt = optimizeSchedule(net, /*allowRecompute=*/false);
        EXPECT_LE(opt.peakBytes, decl.peakBytes) << net.name;
        // The optimizer's claimed peak reprices to the same number.
        EXPECT_EQ(evaluateSchedule(net, opt.entries).peakBytes,
                  opt.peakBytes)
            << net.name;
        const auto rec = optimizeSchedule(net, /*allowRecompute=*/true);
        EXPECT_LE(rec.peakBytes, opt.peakBytes) << net.name;
    }
}

TEST(DagSchedule, OptimizerStrictlyImprovesBranchingNetworks)
{
    // The inception modules hold the concatenated block input live
    // while branches execute; reordering releases it earlier.  These
    // peaks pin the buffer-byte conventions in the two builders.
    const auto googlenet = networkByName("googlenet");
    EXPECT_EQ(declarationSchedule(googlenet).peakBytes, 376320);
    EXPECT_LT(optimizeSchedule(googlenet, false).peakBytes, 376320);
    EXPECT_EQ(optimizeSchedule(googlenet, true).peakBytes, 326144);

    const auto inception = networkByName("inceptionv3");
    EXPECT_EQ(declarationSchedule(inception).peakBytes, 744800);
    EXPECT_LT(optimizeSchedule(inception, false).peakBytes, 744800);
    EXPECT_EQ(optimizeSchedule(inception, false).peakBytes, 676480);
}

TEST(DagSchedule, RecomputationTradeoffIsPinned)
{
    // p is cheap (tiny GEMM) with two consumers far apart; keeping its
    // 100-byte buffer live across the a->b chain is the peak, so the
    // recompute pass re-runs p right before c instead.
    NetworkSpec net;
    net.name = "recompute";
    auto p = buffer("p", 100);
    auto a = buffer("a", 90);
    a.k = 4096; // expensive: not a recompute candidate
    auto b = buffer("b", 90);
    b.k = 4096;
    const auto pi = net.addLayer(p, {});
    const auto ai = net.addLayer(a, {pi});
    const auto bi = net.addLayer(b, {ai});
    net.addLayer(buffer("c", 10), {bi, pi});

    // The only topological order is p a b c: peak is b's step
    // (p + a + b = 280).
    EXPECT_EQ(optimizeSchedule(net, false).peakBytes, 280);
    const auto rec = optimizeSchedule(net, true);
    // p a b p' c: c binds to the re-production, so the first p frees
    // after a; peak drops to c's step rebuild (90 + 100) + 10.
    EXPECT_EQ(rec.peakBytes, 200);
    EXPECT_NE(rec.label.find("+recompute"), std::string::npos);
    EXPECT_EQ(evaluateSchedule(net, rec.entries).peakBytes, 200);
}

TEST(DagSchedule, ScheduleAwareReduceTagsResults)
{
    const auto net = networkByName("googlenet");
    Accelerator acc(griffinArch());
    RunOptions opt;
    opt.sim.sampleFraction = 0.02;
    opt.sim.minSampledTiles = 2;

    // Declaration policy with no budget is the byte-identity path:
    // results carry no schedule annotations.
    const auto base = acc.run(net, DnnCategory::AB, opt);
    EXPECT_TRUE(base.scheduleLabel.empty());
    EXPECT_EQ(base.spillCycles, 0);
    EXPECT_EQ(base.recomputeCycles, 0);

    // Optimized order permutes execution only: same cycles, annotated
    // with the modeled peak.
    RunOptions optimized = opt;
    optimized.schedulePolicy = SchedulePolicy::Optimized;
    const auto reordered = acc.run(net, DnnCategory::AB, optimized);
    EXPECT_EQ(reordered.totalCycles, base.totalCycles);
    EXPECT_FALSE(reordered.scheduleLabel.empty());
    EXPECT_EQ(reordered.peakSramBytes,
              optimizeSchedule(net, false).peakBytes);
    EXPECT_EQ(reordered.spillCycles, 0);

    // A starved budget charges DRAM round-trips for the overflow.
    RunOptions starved = opt;
    starved.sramBudgetBytes = 64 * 1024;
    const auto spilled = acc.run(net, DnnCategory::AB, starved);
    EXPECT_EQ(spilled.scheduleLabel, "declaration");
    EXPECT_GT(spilled.spillCycles, 0);
    EXPECT_EQ(spilled.totalCycles, base.totalCycles + spilled.spillCycles);
    EXPECT_LT(spilled.speedup, base.speedup);
}

} // namespace
} // namespace griffin
