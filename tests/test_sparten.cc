/**
 * @file
 * Tests for the SparTen-style MAC-grid simulator, including an
 * exact-equivalence oracle: the word-parallel simulator must match the
 * element-by-element, heap-balanced reference in
 * tests/support/sparten_reference.* on every GemmSimResult field and
 * never finish faster than one effectual pair per MAC per cycle.  The
 * workset form, which streams B in slabs it does not keep, must equal
 * the two-matrix form and generate only what its routing reads.
 */

#include <gtest/gtest.h>

#include <string>

#include "arch/presets.hh"
#include "baselines/sparten.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "support/sparten_reference.hh"
#include "tensor/sparsity.hh"
#include "tensor/workset.hh"

namespace griffin {
namespace {

MatrixI8
mk(std::int64_t r, std::int64_t c, double sp, std::uint64_t seed)
{
    Rng rng(seed);
    return randomSparse(static_cast<std::size_t>(r),
                        static_cast<std::size_t>(c), sp, rng);
}

TEST(SparTen, DenseWorkRunsNearVectorParity)
{
    auto a = mk(64, 256, 0.0, 1);
    auto b = mk(256, 64, 0.0, 2);
    auto r = simulateSparTen(a, b, sparTenAB(), DnnCategory::Dense);
    // Perfect balancing: M*N*K / 1024 plus per-output overhead.
    const std::int64_t ideal = 64 * 64 * 256 / 1024;
    EXPECT_GE(r.computeCycles, ideal);
    EXPECT_LE(r.computeCycles, ideal + ideal / 4);
}

TEST(SparTen, NearIdealDualSparseSpeedup)
{
    // SparTen's strength: speedup tracks 1/density closely since each
    // MAC executes exactly the effectual pairs.
    auto a = mk(64, 512, 0.5, 3);
    auto b = mk(512, 64, 0.8, 4);
    auto r = simulateSparTen(a, b, sparTenAB(), DnnCategory::AB);
    const double density = 0.5 * 0.2;
    const double ideal = 1.0 / density;
    const double speedup = static_cast<double>(r.denseCycles) /
                           static_cast<double>(r.computeCycles);
    EXPECT_GT(speedup, 0.5 * ideal);
    EXPECT_LE(speedup, 1.1 * ideal);
}

TEST(SparTen, SingleSidedVariantsSkipOnlyTheirSide)
{
    auto a = mk(64, 512, 0.5, 5);
    auto b = mk(512, 64, 0.8, 6);
    auto ab = simulateSparTen(a, b, sparTenAB(), DnnCategory::AB);
    auto only_b = simulateSparTen(a, b, sparTenB(), DnnCategory::AB);
    auto only_a = simulateSparTen(a, b, sparTenA(), DnnCategory::AB);
    EXPECT_LT(ab.computeCycles, only_b.computeCycles);
    EXPECT_LT(ab.computeCycles, only_a.computeCycles);
    // B is sparser than A here, so skipping B wins.
    EXPECT_LT(only_b.computeCycles, only_a.computeCycles);
}

TEST(SparTen, EffectualOpsMatchExactCount)
{
    auto a = mk(16, 64, 0.6, 7);
    auto b = mk(64, 16, 0.7, 8);
    auto r = simulateSparTen(a, b, sparTenAB(), DnnCategory::AB);
    std::int64_t expected = 0;
    for (std::size_t m = 0; m < a.rows(); ++m)
        for (std::size_t n = 0; n < b.cols(); ++n)
            for (std::size_t k = 0; k < a.cols(); ++k)
                expected += a.at(m, k) != 0 && b.at(k, n) != 0;
    EXPECT_EQ(r.effectualOps, expected);
}

TEST(SparTen, ImbalancedColumnsHurtLoadBalancing)
{
    // One dense output column among empty ones: the per-output
    // assignment cannot split a single heavy output across MACs.
    MatrixI8 a = mk(4, 4096, 0.0, 11);
    MatrixI8 b(4096, 64);
    for (std::size_t k = 0; k < 4096; ++k)
        b.at(k, 0) = 1; // only column 0 has work
    auto r = simulateSparTen(a, b, sparTenAB(), DnnCategory::AB);
    // 4 outputs x 4096 pairs each, on 1024 MACs: bounded below by one
    // whole output per MAC.
    EXPECT_GE(r.computeCycles, 4096);
}

// ---- exact-equivalence oracle ---------------------------------------

void
expectSameResult(const GemmSimResult &got, const GemmSimResult &want,
                 const std::string &what)
{
    EXPECT_EQ(got.denseCycles, want.denseCycles) << what;
    EXPECT_EQ(got.computeCycles, want.computeCycles) << what;
    EXPECT_EQ(got.denseOps, want.denseOps) << what;
    EXPECT_EQ(got.effectualOps, want.effectualOps) << what;
    EXPECT_EQ(got.simulatedTiles, want.simulatedTiles) << what;
    EXPECT_EQ(got.totalTiles, want.totalTiles) << what;
    EXPECT_EQ(got.sched.cycles, want.sched.cycles) << what;
    EXPECT_EQ(got.sched.ops, want.sched.ops) << what;
    EXPECT_EQ(got.sched.ownOps, want.sched.ownOps) << what;
    EXPECT_EQ(got.sched.stolenOps, want.sched.stolenOps) << what;
    EXPECT_EQ(got.sched.idleSlotCycles, want.sched.idleSlotCycles)
        << what;
    EXPECT_EQ(got.sched.bwLimitedCycles, want.sched.bwLimitedCycles)
        << what;
}

/** Zero rate: mostly mid-range, with fully dense and all-zero mixed in. */
double
drawSparsity(Rng &rng)
{
    switch (rng.uniformInt(0, 5)) {
      case 0:
        return 0.0;
      case 1:
        return 1.0;
      default:
        return rng.uniform01();
    }
}

TEST(SparTenOracle, MatchesReferenceOnEveryField)
{
    // k and n straddle the 64-bit word and slab edges; m x n runs from
    // one output to 14,000 (13.7x the 1024 MACs), and every fifth case
    // shrinks the grid to 8 MACs, so outputs outnumber MACs up to
    // 1750-fold.  Presets and categories rotate independently, so
    // SparTen.A and SparTen.B (whose dense side is all ones) each run
    // under all four categories.
    const std::int64_t ks[] = {1, 63, 64, 65, 130, 4097};
    const std::int64_t ns[] = {1, 63, 64, 65, 200};
    const std::int64_t ms[] = {1, 3, 32, 70};
    const ArchConfig presets[] = {sparTenA(), sparTenB(), sparTenAB()};
    Rng rng(1806);
    int cases = 0;
    for (const std::int64_t k : ks)
        for (const std::int64_t n : ns)
            for (const std::int64_t m : ms)
                for (int rep = 0; rep < 2; ++rep, ++cases) {
                    ArchConfig arch = presets[cases % 3];
                    const DnnCategory cat = allCategories[(cases / 3) % 4];
                    if (cases % 5 == 4)
                        arch.tile = TileShape{1, 2, 4};
                    MatrixI8 a = randomSparse(
                        static_cast<std::size_t>(m),
                        static_cast<std::size_t>(k), drawSparsity(rng),
                        rng);
                    MatrixI8 b = randomSparse(
                        static_cast<std::size_t>(k),
                        static_cast<std::size_t>(n), drawSparsity(rng),
                        rng);
                    if (cases % 7 == 3) {
                        // One heavy column among empty ones: every
                        // other output ties at the bare overhead.
                        b = MatrixI8(static_cast<std::size_t>(k),
                                     static_cast<std::size_t>(n));
                        const auto col = static_cast<std::size_t>(
                            rng.uniformInt(0, n - 1));
                        for (std::size_t ki = 0; ki < b.rows(); ++ki)
                            b.at(ki, col) = 1;
                    }
                    const std::string what =
                        "case " + std::to_string(cases) + ": " +
                        arch.name + " macs=" +
                        std::to_string(arch.tile.macsPerCycle()) +
                        " cat=" + std::to_string(static_cast<int>(cat)) +
                        " m=" + std::to_string(m) +
                        " k=" + std::to_string(k) +
                        " n=" + std::to_string(n);
                    const GemmSimResult got =
                        simulateSparTen(a, b, arch, cat);
                    expectSameResult(got,
                                     reference::simulateSparTen(a, b, arch,
                                                                cat),
                                     what);
                    // Physical bound: the grid executes at most one
                    // effectual pair per MAC per cycle.
                    const std::int64_t macs = arch.tile.macsPerCycle();
                    EXPECT_GE(got.computeCycles,
                              (countEffectualOps(a, b) + macs - 1) / macs)
                        << what;
                }
    EXPECT_GE(cases, 200);
}

TEST(SparTenOracle, EmptyExtentsReturnTheDenseFieldsOnly)
{
    const std::int64_t shapes[][3] = {{0, 5, 7}, {5, 0, 7}, {5, 7, 0}};
    for (const auto &shape : shapes) {
        const auto a = mk(shape[0], shape[1], 0.5, 14);
        const auto b = mk(shape[1], shape[2], 0.5, 15);
        for (const DnnCategory cat : allCategories)
            expectSameResult(
                simulateSparTen(a, b, sparTenAB(), cat),
                reference::simulateSparTen(a, b, sparTenAB(), cat),
                "m=" + std::to_string(shape[0]) +
                    " k=" + std::to_string(shape[1]) +
                    " n=" + std::to_string(shape[2]));
    }
}

// ---- the workset form ------------------------------------------------

WorksetParams
worksetParams(std::int64_t k, std::int64_t n)
{
    WorksetParams p;
    p.m = 12;
    p.k = k;
    p.n = n;
    p.weightSparsity = 0.7;
    p.actSparsity = 0.5;
    p.weightLaneBias = 0.5;
    p.actRunLength = 2.0;
    p.seed = 3030;
    return p;
}

TEST(SparTenWorkset, EqualsTheTwoMatrixFormAndGeneratesWhatItReads)
{
    // n = 5 is under one slab and n = 100 ends on a ragged one; k = 128
    // fills its mask words and k = 200 does not.  SparTen.A draws no B,
    // SparTen.B generates no A, and no preset keeps a column of B.
    const ArchConfig presets[] = {sparTenAB(), sparTenA(), sparTenB()};
    for (const std::int64_t n : {5, 100})
        for (const std::int64_t k : {128, 200})
            for (const ArchConfig &arch : presets) {
                const WorksetParams p = worksetParams(k, n);
                const LayerWorkset eager = generateLayerWorkset(p);
                const LayerWorkset ws(p);
                const std::string what = arch.name +
                                         " k=" + std::to_string(k) +
                                         " n=" + std::to_string(n);
                expectSameResult(
                    simulateSparTen(ws, arch, DnnCategory::AB),
                    simulateSparTen(eager.a, eager.b, arch, DnnCategory::AB),
                    what);
                const RoutingConfig routing =
                    arch.effectiveRouting(DnnCategory::AB);
                EXPECT_EQ(ws.generatedA(), routing.sparseA()) << what;
                EXPECT_EQ(ws.generatedElements(),
                          (routing.sparseA() ? p.m * k : 0) +
                              (routing.sparseB() ? k * n : 0))
                    << what;
                EXPECT_EQ(ws.drawnBTiles(), 0) << what;
                EXPECT_EQ(ws.b.size(), 0u) << what;
            }
}

TEST(SparTenDeathTest, VectorCoreConfigRejected)
{
    auto a = mk(8, 32, 0.0, 12);
    auto b = mk(32, 8, 0.0, 13);
    EXPECT_EXIT(simulateSparTen(a, b, griffinArch(), DnnCategory::AB),
                testing::ExitedWithCode(exitUsageError), "MacGrid");
    EXPECT_EXIT(simulateSparTen(LayerWorkset(worksetParams(32, 8)),
                                griffinArch(), DnnCategory::AB),
                testing::ExitedWithCode(exitUsageError), "MacGrid");
}

} // namespace
} // namespace griffin
