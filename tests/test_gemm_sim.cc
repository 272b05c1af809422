/**
 * @file
 * Tests for the GEMM-level cycle simulator: speedup bounds, sampling
 * accuracy, bandwidth effects, and category-driven morphing.
 */

#include <gtest/gtest.h>

#include "arch/presets.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/gemm_sim.hh"
#include "tensor/sparsity.hh"

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

/**
 * Datapath-isolation helper: the unit-test GEMMs are much thinner than
 * the paper's layers, so at the real 50 GB/s they would be DRAM-bound
 * and every architecture would measure alike.  Tests that probe the
 * datapath raise the DRAM ceiling; DramBytesAccountCompressedB and
 * ThrottledBandwidthReducesSpeedup cover the memory side explicitly.
 */
ArchConfig
unboundDram(ArchConfig cfg)
{
    cfg.mem.dramGBs = 1e6;
    return cfg;
}

TEST(GemmSim, DenseBaselineMatchesClosedForm)
{
    auto t = makeTensors(64, 256, 64, 0.0, 0.0, 11);
    auto r = simulateGemm(t.a, t.b, denseBaseline(), DnnCategory::Dense);
    EXPECT_EQ(r.computeCycles, r.denseCycles);
    EXPECT_EQ(r.denseCycles, 16 * 4 * 16);
    EXPECT_DOUBLE_EQ(r.speedup(), 1.0);
    EXPECT_EQ(r.denseOps, 64 * 256 * 64);
    EXPECT_EQ(r.effectualOps, r.denseOps);
}

TEST(GemmSim, SparseBSpeedupWithinIdealBound)
{
    auto t = makeTensors(32, 512, 32, 0.0, 0.8, 12);
    auto r = simulateGemm(t.a, t.b, unboundDram(sparseBStar()),
                          DnnCategory::B);
    // Ideal bound is the window depth 1 + db1 = 5.
    EXPECT_GT(r.speedup(), 1.3);
    EXPECT_LE(r.speedup(), 5.0);
}

TEST(GemmSim, SparseBOnDenseDataIsNeutral)
{
    auto t = makeTensors(16, 256, 32, 0.0, 0.0, 13);
    auto r = simulateGemm(t.a, t.b, unboundDram(sparseBStar()),
                          DnnCategory::Dense);
    EXPECT_EQ(r.computeCycles, r.denseCycles);
}

TEST(GemmSim, SparseASpeedupTracksActivationSparsity)
{
    auto t = makeTensors(64, 512, 32, 0.5, 0.0, 14);
    auto r = simulateGemm(t.a, t.b, unboundDram(sparseAStar()),
                          DnnCategory::A);
    EXPECT_GT(r.speedup(), 1.2);
    EXPECT_LE(r.speedup(), 3.0); // window depth 1 + da1 = 3
}

TEST(GemmSim, DualSpeedupCompoundsBothSparsities)
{
    auto t = makeTensors(32, 512, 32, 0.5, 0.8, 15);
    auto dual = simulateGemm(t.a, t.b, unboundDram(sparseABStar()),
                             DnnCategory::AB);
    auto b_only = simulateGemm(t.a, t.b, unboundDram(sparseBStar()),
                               DnnCategory::B);
    EXPECT_GT(dual.speedup(), b_only.speedup());
    EXPECT_LE(dual.speedup(), 9.0); // L = (1+2)(1+2)
}

TEST(GemmSim, MoreSparsityNeverSlowsTheSameArch)
{
    const auto arch = unboundDram(sparseBStar());
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
    auto rigid = simulateGemm(t.a, t.b, unboundDram(sparseABStar()),
                              DnnCategory::B);
    auto hybrid = simulateGemm(t.a, t.b, unboundDram(griffinArch()),
                               DnnCategory::B);
    EXPECT_GT(hybrid.speedup(), rigid.speedup());
}

TEST(GemmSim, SamplingApproximatesExact)
{
    auto t = makeTensors(128, 256, 128, 0.5, 0.8, 18);
    SimOptions exact;
    auto full = simulateGemm(t.a, t.b, unboundDram(sparseABStar()),
                             DnnCategory::AB, exact);
    SimOptions sampled;
    sampled.sampleFraction = 0.1;
    auto approx = simulateGemm(t.a, t.b, unboundDram(sparseABStar()),
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
    auto arch = unboundDram(sparseBStar());
    auto free_bw = simulateGemm(t.a, t.b, arch, DnnCategory::B);
    arch.bwScale = 1.5;
    auto tight = simulateGemm(t.a, t.b, arch, DnnCategory::B);
    EXPECT_LT(tight.speedup(), free_bw.speedup());
    EXPECT_LE(tight.speedup(), 1.5 + 0.01);
}

TEST(GemmSim, DramBytesAccountCompressedB)
{
    auto t = makeTensors(8, 256, 16, 0.0, 0.9, 20);
    auto dense_run =
        simulateGemm(t.a, t.b, denseBaseline(), DnnCategory::Dense);
    auto sparse_run =
        simulateGemm(t.a, t.b, sparseBStar(), DnnCategory::B);
    // Compressed B (10% nnz + metadata) must beat dense K*N traffic.
    EXPECT_LT(sparse_run.dramBytes, dense_run.dramBytes);
    EXPECT_GE(sparse_run.dramBytes,
              static_cast<std::int64_t>(t.a.rows() * t.a.cols()));
}

TEST(GemmSim, DrainCyclesAddPerTileOverhead)
{
    auto t = makeTensors(64, 64, 64, 0.0, 0.0, 21);
    SimOptions opt;
    opt.drainCyclesPerTile = 4;
    auto r = simulateGemm(t.a, t.b, denseBaseline(), DnnCategory::Dense,
                          opt);
    EXPECT_EQ(r.totalCycles, r.denseCycles + 4 * r.totalTiles);
}

TEST(GemmSim, EffectualOpsCountsPairs)
{
    MatrixI8 a(2, 4), b(4, 2);
    a.at(0, 0) = 1;
    a.at(1, 2) = 3;
    b.at(0, 0) = 5; // pairs with a(0,0) for n=0
    b.at(2, 1) = 7; // pairs with a(1,2) for n=1
    b.at(3, 0) = 2; // no nonzero a in column k=3
    auto r = simulateGemm(a, b, denseBaseline(), DnnCategory::Dense);
    EXPECT_EQ(r.effectualOps, 2);
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
    EXPECT_EQ(r.totalCycles, 0);
    EXPECT_EQ(r.totalTiles, 0);
}

// ---- staged pipeline ------------------------------------------------

void
expectResultsEq(const GemmSimResult &x, const GemmSimResult &y)
{
    EXPECT_EQ(x.denseCycles, y.denseCycles);
    EXPECT_EQ(x.computeCycles, y.computeCycles);
    EXPECT_EQ(x.dramCycles, y.dramCycles);
    EXPECT_EQ(x.totalCycles, y.totalCycles);
    EXPECT_EQ(x.dramBytes, y.dramBytes);
    EXPECT_EQ(x.denseOps, y.denseOps);
    EXPECT_EQ(x.effectualOps, y.effectualOps);
    EXPECT_EQ(x.simulatedTiles, y.simulatedTiles);
    EXPECT_EQ(x.totalTiles, y.totalTiles);
    EXPECT_EQ(x.sched.cycles, y.sched.cycles);
    EXPECT_EQ(x.sched.ops, y.sched.ops);
    EXPECT_EQ(x.sched.stolenOps, y.sched.stolenOps);
}

TEST(GemmSim, StagedOperandsMatchMonolithicEntryPoint)
{
    auto t = makeTensors(32, 128, 48, 0.5, 0.8, 31);
    for (const auto &arch :
         {unboundDram(sparseBStar()), unboundDram(sparseAStar()),
          unboundDram(griffinArch())}) {
        SimOptions opt;
        opt.sampleFraction = 1.0;
        const auto mono =
            simulateGemm(t.a, t.b, arch, DnnCategory::AB, opt);
        const auto staged = simulateGemm(makeGemmOperands(t.a, t.b),
                                         arch, DnnCategory::AB, opt);
        expectResultsEq(staged, mono);
    }
}

} // namespace
} // namespace griffin
