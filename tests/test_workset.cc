/**
 * @file
 * Tests for the stage-1 pipeline artifact (tensor/workset.hh):
 * generation determinism, parameter sensitivity, and bit-identity of
 * Accelerator::runLayer over a supplied workset with runLayer
 * generating its own.
 */

#include <gtest/gtest.h>

#include "arch/presets.hh"
#include "griffin/accelerator.hh"
#include "workloads/network.hh"

namespace griffin {
namespace {

WorksetParams
tinyParams(std::uint64_t seed = 7)
{
    WorksetParams p;
    p.m = 16;
    p.k = 64;
    p.n = 32;
    p.weightSparsity = 0.8;
    p.actSparsity = 0.5;
    p.weightLaneBias = 0.5;
    p.actRunLength = 2.0;
    p.seed = seed;
    return p;
}

void
expectWorksetEq(const LayerWorkset &x, const LayerWorkset &y)
{
    EXPECT_EQ(x.a, y.a);
    EXPECT_EQ(x.b, y.b);
    EXPECT_EQ(x.simSeed, y.simSeed);
}

TEST(Workset, GenerationIsDeterministic)
{
    const auto p = tinyParams();
    const auto w1 = generateLayerWorkset(p);
    const auto w2 = generateLayerWorkset(p);
    expectWorksetEq(w1, w2);
    EXPECT_EQ(w1.a.rows(), 16u);
    EXPECT_EQ(w1.a.cols(), 64u);
    EXPECT_EQ(w1.b.rows(), 64u);
    EXPECT_EQ(w1.b.cols(), 32u);
}

TEST(Workset, SeedAndShapeChangeTheKeyAndTheData)
{
    // WorksetParams is the sweep runner's grouping key: equality and
    // the map order both see every field.
    const auto p = tinyParams(7);
    auto p3 = tinyParams(7);
    p3.n = 48;
    auto p4 = tinyParams(7);
    p4.weightLaneBias = 0.25;
    for (const auto &other : {tinyParams(8), p3, p4}) {
        EXPECT_NE(p, other);
        EXPECT_TRUE(p < other || other < p);
    }
    EXPECT_EQ(p, tinyParams(7));
    EXPECT_FALSE(p < tinyParams(7));

    const auto w1 = generateLayerWorkset(p);
    const auto w2 = generateLayerWorkset(tinyParams(8));
    EXPECT_NE(w1.a, w2.a);
}

TEST(Workset, SuppliedWorksetRunLayerBitIdentical)
{
    // The sweep runner generates a workset once and hands it to every
    // consumer: that must equal runLayer generating its own.
    const auto net = alexNet();
    const Accelerator acc(griffinArch());
    RunOptions opt;
    opt.rowCap = 8;
    opt.sim.sampleFraction = 0.25;
    opt.sim.minSampledTiles = 2;

    const auto own = acc.runLayer(net, 0, DnnCategory::AB, opt);
    const auto workset = generateLayerWorkset(
        acc.layerWorksetParams(net, 0, DnnCategory::AB, opt));
    const auto supplied =
        acc.runLayer(net, 0, DnnCategory::AB, opt, workset);

    EXPECT_EQ(supplied.name, own.name);
    EXPECT_EQ(supplied.denseCycles, own.denseCycles);
    EXPECT_EQ(supplied.computeCycles, own.computeCycles);
    EXPECT_EQ(supplied.dramCycles, own.dramCycles);
    EXPECT_EQ(supplied.totalCycles, own.totalCycles);
    EXPECT_EQ(supplied.macs, own.macs);
    EXPECT_DOUBLE_EQ(supplied.speedup, own.speedup);
}

} // namespace
} // namespace griffin
