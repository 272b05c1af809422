/**
 * @file
 * Tests for the GEMM-level cycle simulator: speedup bounds, sampling
 * accuracy, bandwidth effects, category-driven morphing, and the
 * physical bound every engine's compute cycles must respect.
 */

#include <gtest/gtest.h>

#include "arch/presets.hh"
#include "baselines/sparten.hh"
#include "common/logging.hh"
#include "common/rng.hh"
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

} // namespace
} // namespace griffin
