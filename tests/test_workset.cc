/**
 * @file
 * Tests for the stage-1 pipeline artifact (tensor/workset.hh):
 * generation determinism, parameter sensitivity, the deferred
 * workset's contract (A is generated on first read and B's column
 * masks are drawn on request, each side from its own stream, equal to
 * the eager workset's), and bit-identity of
 * Accelerator::runLayer over a supplied workset with runLayer making
 * its own.
 */

#include <gtest/gtest.h>

#include <vector>

#include "arch/presets.hh"
#include "griffin/accelerator.hh"
#include "simd/occupancy.hh"
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

/** Masks of B's columns [first, first + width) of tinyParams' k = 64,
 *  drawn by `ws`. */
std::vector<std::uint64_t>
drawnMasks(const LayerWorkset &ws, std::int64_t first, int width)
{
    std::vector<std::uint64_t> out(static_cast<std::size_t>(width));
    ws.bColumnMasks(first, width, 1, out.data());
    return out;
}

/** The same masks read from a whole B. */
std::vector<std::uint64_t>
matrixMasks(const MatrixI8 &b, std::int64_t first, int width)
{
    std::vector<std::uint64_t> out(static_cast<std::size_t>(width));
    simd::bColumnMasks(b, first, width, 1, out.data());
    return out;
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

TEST(Workset, EagerEqualsDeferredWithBothSidesRead)
{
    for (const std::uint64_t seed : {7u, 8u, 9u}) {
        const LayerWorkset eager = generateLayerWorkset(tinyParams(seed));
        EXPECT_TRUE(eager.generatedA());
        // Either read order gives the same bits: the sides share no
        // stream.
        const LayerWorkset ab(tinyParams(seed));
        ab.operandA();
        const auto ab_masks = drawnMasks(ab, 0, 32);
        const LayerWorkset ba(tinyParams(seed));
        const auto ba_masks = drawnMasks(ba, 0, 32);
        ba.operandA();
        for (const LayerWorkset *ws : {&ab, &ba}) {
            EXPECT_EQ(ws->a, eager.a);
            EXPECT_EQ(ws->simSeed, eager.simSeed);
        }
        EXPECT_EQ(ab_masks, matrixMasks(eager.b, 0, 32));
        EXPECT_EQ(ba_masks, matrixMasks(eager.b, 0, 32));
    }
}

TEST(Workset, DeferredSidesStayEmptyUntilRead)
{
    const LayerWorkset ws(tinyParams());
    const LayerWorkset eager = generateLayerWorkset(tinyParams());
    EXPECT_EQ(ws.simSeed, eager.simSeed);
    EXPECT_FALSE(ws.generatedA());
    EXPECT_EQ(ws.a.size(), 0u);
    EXPECT_EQ(ws.b.size(), 0u);
    EXPECT_EQ(ws.generatedElements(), 0);

    // A column range's masks are those of whole B's columns, counted
    // and not kept.
    EXPECT_EQ(drawnMasks(ws, 5, 20), matrixMasks(eager.b, 5, 20));
    EXPECT_EQ(ws.b.size(), 0u);
    EXPECT_EQ(ws.drawnBTiles(), 0);
    EXPECT_FALSE(ws.generatedA());
    EXPECT_EQ(ws.generatedElements(), 64 * 20);

    const MatrixI8 &a = ws.operandA();
    EXPECT_EQ(&a, &ws.a);
    EXPECT_EQ(a.rows(), 16u);
    EXPECT_EQ(a.cols(), 64u);
    EXPECT_TRUE(ws.generatedA());
    // A second read returns the side already generated.
    EXPECT_EQ(&ws.operandA(), &a);
    EXPECT_EQ(ws.generatedElements(), 16 * 64 + 64 * 20);
}

TEST(Workset, EachSideDrawsFromItsOwnStream)
{
    // A parameter that only one generator reads leaves the other side
    // byte-identical, and so does the sampling seed.
    const auto base = generateLayerWorkset(tinyParams());
    auto weights = tinyParams();
    weights.weightSparsity = 0.3;
    auto bias = tinyParams();
    bias.weightLaneBias = 0.9;
    for (const auto &p : {weights, bias}) {
        const auto ws = generateLayerWorkset(p);
        EXPECT_EQ(ws.a, base.a);
        EXPECT_NE(ws.b, base.b);
        EXPECT_EQ(ws.simSeed, base.simSeed);
    }
    auto acts = tinyParams();
    acts.actSparsity = 0.2;
    auto runs = tinyParams();
    runs.actRunLength = 4.0;
    for (const auto &p : {acts, runs}) {
        const auto ws = generateLayerWorkset(p);
        EXPECT_EQ(ws.b, base.b);
        EXPECT_NE(ws.a, base.a);
        EXPECT_EQ(ws.simSeed, base.simSeed);
    }
    // The three streams differ from one another and from the seed's.
    const auto other = generateLayerWorkset(tinyParams(8));
    EXPECT_NE(other.a, base.a);
    EXPECT_NE(other.b, base.b);
}

TEST(Workset, SuppliedWorksetRunLayerBitIdentical)
{
    // The sweep runner hands one workset to every consumer: an eager
    // one must equal runLayer making its own deferred one, in every
    // category (Griffin morphs, so each reads different sides).
    const auto net = alexNet();
    const Accelerator acc(griffinArch());
    RunOptions opt;
    opt.rowCap = 8;
    opt.sim.sampleFraction = 0.25;
    opt.sim.minSampledTiles = 2;

    for (const auto cat : {DnnCategory::Dense, DnnCategory::A,
                           DnnCategory::B, DnnCategory::AB}) {
        const auto own = acc.runLayer(net, 0, cat, opt);
        const auto workset =
            generateLayerWorkset(acc.layerWorksetParams(net, 0, cat, opt));
        const auto supplied = acc.runLayer(net, 0, cat, opt, workset);

        EXPECT_EQ(supplied.name, own.name);
        EXPECT_EQ(supplied.denseCycles, own.denseCycles);
        EXPECT_EQ(supplied.computeCycles, own.computeCycles);
        EXPECT_EQ(supplied.dramCycles, own.dramCycles);
        EXPECT_EQ(supplied.totalCycles, own.totalCycles);
        EXPECT_EQ(supplied.macs, own.macs);
        EXPECT_DOUBLE_EQ(supplied.speedup, own.speedup);
    }
}

} // namespace
} // namespace griffin
