/**
 * @file
 * Tests for architecture presets, Griffin morphing, and the DSE
 * enumerators.
 */

#include <set>

#include <gtest/gtest.h>

#include "arch/dse.hh"
#include "arch/overhead.hh"
#include "arch/presets.hh"
#include "common/logging.hh"

namespace griffin {
namespace {

TEST(Presets, TableVIOptimalPoints)
{
    EXPECT_EQ(sparseBStar().routing.str(), "B(4,0,1,on)");
    EXPECT_EQ(sparseAStar().routing.str(), "A(2,1,0,on)");
    EXPECT_EQ(sparseABStar().routing.str(), "AB(2,0,0,2,0,1,on)");
    EXPECT_EQ(griffinArch().routing.str(), "AB(2,0,0,2,0,1,on)");
    EXPECT_TRUE(griffinArch().hybrid);
    EXPECT_FALSE(sparseABStar().hybrid);
}

TEST(Presets, AllValidateAndHaveUniqueNames)
{
    std::set<std::string> names;
    for (const auto &cfg : allPresets()) {
        cfg.validate();
        EXPECT_TRUE(names.insert(cfg.name).second)
            << "duplicate preset name " << cfg.name;
    }
    EXPECT_EQ(names.size(), 12u);
}

TEST(Presets, LookupByName)
{
    EXPECT_EQ(presetByName("Griffin").name, "Griffin");
    EXPECT_EQ(presetByName("Sparse.B*").routing.b.d1, 4);
}

TEST(PresetsDeathTest, UnknownNameIsFatal)
{
    EXPECT_EXIT(presetByName("NoSuchArch"), testing::ExitedWithCode(exitUsageError),
                "unknown architecture preset");
}

TEST(Presets, ArchByNameParsesRoutingSpecs)
{
    // Routing-spec names build baseline hardware with that routing —
    // the sweep grid's arch axis accepts arbitrary design points.
    EXPECT_EQ(archByName("B(4,0,1,on)").routing, sparseBStar().routing);
    EXPECT_EQ(archByName("B(4,0,1,on)").name, "B(4,0,1,on)");
    EXPECT_EQ(archByName("A(2,1,0,off)").routing.str(), "A(2,1,0,off)");
    EXPECT_EQ(archByName("AB(2,0,0,2,0,1,on)").routing,
              sparseABStar().routing);
    EXPECT_EQ(archByName("Dense").routing.mode, SparsityMode::Dense);

    const auto otf = archByName("AB(3,1,0,3,1,0,off)[otf]");
    EXPECT_FALSE(otf.routing.preprocessB);
    EXPECT_EQ(otf.name, "AB(3,1,0,3,1,0,off)[otf]");
}

TEST(Presets, ArchByNamePrefersPresets)
{
    EXPECT_EQ(archByName("Griffin").name, "Griffin");
    EXPECT_TRUE(archByName("Griffin").hybrid);
    EXPECT_EQ(archByName("SparTen.AB").style, DatapathStyle::MacGrid);
}

TEST(PresetsDeathTest, ArchByNameRejectsMalformedSpecs)
{
    EXPECT_EXIT(archByName("B(4,0,1)"), testing::ExitedWithCode(exitUsageError),
                "unknown architecture");
    EXPECT_EXIT(archByName("C(1,0,0,on)"), testing::ExitedWithCode(exitUsageError),
                "unknown architecture");
    EXPECT_EXIT(archByName("B(4,0,x,on)"), testing::ExitedWithCode(exitUsageError),
                "bad routing distance");
    EXPECT_EXIT(archByName("B(4,0,1,maybe)"),
                testing::ExitedWithCode(exitUsageError), "bad shuffle flag");
    // Distances past maxRoutingDistance: no int overflow, no window of
    // -2^31 steps, no scan over millions of steal offsets.
    EXPECT_EXIT(archByName("B(99999999999,0,0,off)"),
                testing::ExitedWithCode(exitUsageError),
                "routing distance '99999999999' .* exceeds 64");
    EXPECT_EXIT(archByName("B(2147483647,0,0,off)"),
                testing::ExitedWithCode(exitUsageError),
                "routing distance '2147483647' .* exceeds 64");
    EXPECT_EXIT(archByName("B(4,0,3000000,off)"),
                testing::ExitedWithCode(exitUsageError),
                "routing distance '3000000' .* exceeds 64");
    EXPECT_EXIT(archByName("AB(2,3000,3000,2,0,1,on)"),
                testing::ExitedWithCode(exitUsageError),
                "routing distance '3000' .* exceeds 64");
}

TEST(Presets, ArchByNameAcceptsDistancesUpToTheCap)
{
    EXPECT_EQ(archByName("B(64,0,64,off)").routing.b, (Borrow{64, 0, 64}));
    EXPECT_EQ(archByName("A(0,64,1,on)").routing.a, (Borrow{0, 64, 1}));
}

TEST(Presets, SparTenIsMacGridWithDeepBuffers)
{
    auto cfg = sparTenAB();
    EXPECT_EQ(cfg.style, DatapathStyle::MacGrid);
    EXPECT_EQ(cfg.macBufferDepth, 128);
    EXPECT_EQ(sparTenA().routing.mode, SparsityMode::A);
    EXPECT_EQ(sparTenB().routing.mode, SparsityMode::B);
}

TEST(Presets, TdashHasNoPreprocessing)
{
    EXPECT_FALSE(tdashAB().routing.preprocessB);
    EXPECT_FALSE(tdashAB().routing.shuffle);
}

TEST(Presets, TclHasNoCrossPeRoutingOrShuffle)
{
    auto cfg = tclB();
    EXPECT_EQ(cfg.routing.b.d3, 0);
    EXPECT_FALSE(cfg.routing.shuffle);
    EXPECT_TRUE(withinFaninLimits(cfg.routing, cfg.tile));
}

TEST(Presets, TableSevenRowOrder)
{
    auto rows = tableSevenPresets();
    ASSERT_EQ(rows.size(), 8u);
    EXPECT_EQ(rows.front().name, "Baseline");
    EXPECT_EQ(rows.back().name, "SparTen.AB");
}

TEST(GriffinMorph, MatchesFigureFour)
{
    EXPECT_EQ(griffinMorph(DnnCategory::AB).str(), "AB(2,0,0,2,0,1,on)");
    EXPECT_EQ(griffinMorph(DnnCategory::B).str(), "B(8,0,1,on)");
    EXPECT_EQ(griffinMorph(DnnCategory::A).str(), "A(2,1,1,on)");
    EXPECT_EQ(griffinMorph(DnnCategory::Dense).str(), "Dense");
}

TEST(GriffinMorph, EffectiveRoutingSelectsByCategory)
{
    auto g = griffinArch();
    EXPECT_EQ(g.effectiveRouting(DnnCategory::B).str(), "B(8,0,1,on)");
    // Non-hybrid dual design keeps its routing for every category.
    auto ab = sparseABStar();
    EXPECT_EQ(ab.effectiveRouting(DnnCategory::B).str(),
              "AB(2,0,0,2,0,1,on)");
}

TEST(GriffinMorph, AutoBandwidthFollowsWindowDepth)
{
    auto g = griffinArch();
    EXPECT_DOUBLE_EQ(g.effectiveBwScale(DnnCategory::AB), 9.0);
    EXPECT_DOUBLE_EQ(g.effectiveBwScale(DnnCategory::B), 9.0);
    EXPECT_DOUBLE_EQ(g.effectiveBwScale(DnnCategory::A), 3.0);
    EXPECT_DOUBLE_EQ(g.effectiveBwScale(DnnCategory::Dense), 1.0);
    auto fixed = griffinArch();
    fixed.bwScale = 2.5;
    EXPECT_DOUBLE_EQ(fixed.effectiveBwScale(DnnCategory::AB), 2.5);
}

TEST(ArchConfigDeathTest, ValidationCatchesUserErrors)
{
    auto cfg = denseBaseline();
    cfg.tile.k0 = 0;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(exitUsageError),
                "non-positive tile geometry");
    auto mac = sparTenAB();
    mac.macBufferDepth = 0;
    EXPECT_EXIT(mac.validate(), testing::ExitedWithCode(exitUsageError),
                "positive buffer depth");
}

TEST(Dse, SparseBSpaceRespectsLimits)
{
    auto space = enumerateSparseB(TileShape{});
    EXPECT_GT(space.size(), 10u);
    for (const auto &cfg : space) {
        EXPECT_GE(cfg.b.d1, 2); // db1 = 1 dropped per the paper
        EXPECT_TRUE(withinFaninLimits(cfg, TileShape{}));
    }
    // The paper's Sparse.B* must be in the enumerated space.
    auto star = sparseBStar().routing;
    EXPECT_NE(std::find(space.begin(), space.end(), star), space.end());
}

TEST(Dse, SparseASpaceContainsOptimum)
{
    auto space = enumerateSparseA(TileShape{});
    auto star = sparseAStar().routing;
    EXPECT_NE(std::find(space.begin(), space.end(), star), space.end());
    for (const auto &cfg : space)
        EXPECT_TRUE(withinFaninLimits(cfg, TileShape{}));
}

TEST(Dse, SparseABSpaceExcludesDoubleAdderTrees)
{
    auto space = enumerateSparseAB(TileShape{});
    auto star = sparseABStar().routing;
    EXPECT_NE(std::find(space.begin(), space.end(), star), space.end());
    for (const auto &cfg : space) {
        EXPECT_EQ(cfg.a.d3, 0); // da3 excluded (Section VI-C)
        EXPECT_TRUE(withinFaninLimits(cfg, TileShape{}));
    }
}

TEST(Dse, ShuffleSweepDoublesConfigs)
{
    DseLimits lim;
    lim.sweepShuffle = false;
    auto on_only = enumerateSparseB(TileShape{}, lim);
    lim.sweepShuffle = true;
    auto both = enumerateSparseB(TileShape{}, lim);
    EXPECT_EQ(both.size(), 2 * on_only.size());
}

} // namespace
} // namespace griffin
