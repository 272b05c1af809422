/**
 * @file
 * Tests for the experiment registry (runtime/experiment.hh):
 * registration and lookup, duplicate-name rejection, list/describe
 * output, fidelity- and threads-flag resolution, non-rectangular
 * grids via SweepSpec::jobFilter, and --grid overrides.
 *
 * The registry in the core library starts empty — the paper
 * experiments register from bench/experiments/, which only
 * griffin_bench links — so these tests own every entry they see.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "arch/presets.hh"
#include "common/logging.hh"
#include "runtime/experiment.hh"
#include "workloads/network.hh"

namespace griffin {
namespace {

ExperimentPlan
tinyPlan(const RunOptions &)
{
    ExperimentPlan plan;
    plan.base.archs = {sparseBStar()};
    plan.base.networks = {networkByName("alexnet")};
    plan.base.categories = {DnnCategory::B};
    return plan;
}

std::vector<Table>
tinyRender(const ExperimentContext &ctx)
{
    Table t("tiny", {"arch", "speedup"});
    if (ctx.sweep != nullptr)
        t.addRow({ctx.spec->archs[0].name,
                  Table::num(ctx.archGeomean(0))});
    return {t};
}

ExperimentPlan
axesPlan(const RunOptions &)
{
    ExperimentPlan plan;
    plan.grid.axis("weight_lane_bias", {0.2, 0.8})
        .axis("arch", {"Sparse.B*"})
        .axis("category", {"b"});
    plan.base.networks = {networkByName("alexnet")};
    plan.lockedAxes = {"arch"};
    return plan;
}

/** Register the shared fixture experiments exactly once. */
bool
registerFixtures()
{
    registerExperiment({"zz_tiny", "a tiny sweep experiment",
                        /*defaultSample=*/0.02, /*defaultRowCap=*/8,
                        tinyPlan, tinyRender});
    registerExperiment({"aa_static", "a render-only experiment",
                        /*defaultSample=*/0.04, /*defaultRowCap=*/48,
                        nullptr, tinyRender});
    registerExperiment({"zz_axes", "a sweep with an options axis",
                        /*defaultSample=*/0.02, /*defaultRowCap=*/8,
                        axesPlan, tinyRender});
    return true;
}

const bool fixtures = registerFixtures();

// ---- registry -------------------------------------------------------

TEST(ExperimentRegistry, LookupFindsRegisteredExperiments)
{
    ASSERT_TRUE(fixtures);
    const Experiment *tiny = findExperiment("zz_tiny");
    ASSERT_NE(tiny, nullptr);
    EXPECT_EQ(tiny->description, "a tiny sweep experiment");
    EXPECT_EQ(tiny->defaultSample, 0.02);
    EXPECT_EQ(tiny->defaultRowCap, 8);
    EXPECT_NE(findExperiment("aa_static"), nullptr);
    EXPECT_EQ(findExperiment("no_such_experiment"), nullptr);
}

TEST(ExperimentRegistry, RegistryIsNameSorted)
{
    const auto &experiments = experimentRegistry();
    ASSERT_GE(experiments.size(), 2u);
    for (std::size_t i = 1; i < experiments.size(); ++i)
        EXPECT_LT(experiments[i - 1].name, experiments[i].name);
}

TEST(ExperimentRegistryDeathTest, DuplicateNameIsFatal)
{
    EXPECT_EXIT(registerExperiment({"zz_tiny", "again", 0.02, 8,
                                    tinyPlan, tinyRender}),
                testing::ExitedWithCode(exitUsageError), "registered twice");
}

TEST(ExperimentRegistryDeathTest, MissingNameOrRenderIsFatal)
{
    EXPECT_EXIT(registerExperiment({"", "anonymous", 0.02, 8, nullptr,
                                    tinyRender}),
                testing::ExitedWithCode(exitUsageError), "needs a name");
    EXPECT_EXIT(registerExperiment({"zz_norender", "no render", 0.02,
                                    8, nullptr, nullptr}),
                testing::ExitedWithCode(exitUsageError), "no render");
}

// ---- list / describe ------------------------------------------------

TEST(ExperimentList, TableNamesEveryExperimentWithJobCounts)
{
    const Table t = experimentListTable();
    ASSERT_EQ(t.cols(), 3u);
    EXPECT_EQ(t.rows(), experimentRegistry().size());
    bool saw_tiny = false;
    bool saw_static = false;
    for (std::size_t r = 0; r < t.rows(); ++r) {
        if (t.cell(r, 0) == "zz_tiny") {
            saw_tiny = true;
            EXPECT_EQ(t.cell(r, 1), "1"); // 1 arch x 1 net x 1 cat
            EXPECT_EQ(t.cell(r, 2), "a tiny sweep experiment");
        }
        if (t.cell(r, 0) == "aa_static") {
            saw_static = true;
            EXPECT_EQ(t.cell(r, 1), "-"); // render-only: no sweep
        }
    }
    EXPECT_TRUE(saw_tiny);
    EXPECT_TRUE(saw_static);
}

TEST(ExperimentDescribe, ReportsDefaultsAndGridShape)
{
    const auto text = describeExperiment(*findExperiment("zz_tiny"));
    EXPECT_NE(text.find("zz_tiny — a tiny sweep experiment"),
              std::string::npos);
    EXPECT_NE(text.find("--sample 0.02 --rowcap 8"),
              std::string::npos);
    EXPECT_NE(text.find("1 archs x 1 networks x 1 categories"),
              std::string::npos);

    const auto static_text =
        describeExperiment(*findExperiment("aa_static"));
    EXPECT_NE(static_text.find("render-only"), std::string::npos);
}

// ---- fidelity flags -------------------------------------------------

TEST(ExperimentFlags, SentinelFallsBackToExperimentDefaults)
{
    Cli cli("test");
    addFidelityFlags(cli);
    const char *argv[] = {"prog"};
    cli.parse(1, argv);
    const auto run = resolveFidelity(cli, 0.02, 8);
    EXPECT_EQ(run.sim.sampleFraction, 0.02);
    EXPECT_EQ(run.rowCap, 8);
    EXPECT_EQ(run.seed, 1u);
    EXPECT_EQ(run.weightLaneBias, 0.5);
}

TEST(ExperimentFlags, ExplicitFlagsOverrideDefaults)
{
    Cli cli("test");
    addFidelityFlags(cli);
    const char *argv[] = {"prog", "--sample", "0.5", "--rowcap", "16",
                          "--seed", "7", "--lanebias", "0.25"};
    cli.parse(9, argv);
    const auto run = resolveFidelity(cli, 0.02, 8);
    EXPECT_EQ(run.sim.sampleFraction, 0.5);
    EXPECT_EQ(run.rowCap, 16);
    EXPECT_EQ(run.seed, 7u);
    EXPECT_EQ(run.weightLaneBias, 0.25);
}

TEST(ExperimentFlags, OnlyMinusOneIsTheSentinel)
{
    // Other negative values pass through, for SweepSpec::validate() to
    // reject, instead of silently running at the default fidelity.
    Cli cli("test");
    addFidelityFlags(cli);
    const char *argv[] = {"prog", "--sample", "-0.5", "--rowcap", "-5"};
    cli.parse(5, argv);
    const auto run = resolveFidelity(cli, 0.02, 8);
    EXPECT_EQ(run.sim.sampleFraction, -0.5);
    EXPECT_EQ(run.rowCap, -5);
}

TEST(ExperimentFlagsDeathTest, NegativeSeedIsFatal)
{
    Cli cli("test");
    addFidelityFlags(cli);
    const char *argv[] = {"prog", "--seed", "-1"};
    cli.parse(3, argv);
    EXPECT_EXIT(resolveFidelity(cli, 0.02, 8),
                testing::ExitedWithCode(exitUsageError),
                "--seed must be non-negative, got -1");
}

TEST(ThreadsFlagDeathTest, OutOfRangeThreadsAreFatal)
{
    const auto resolve = [](const char *threads) {
        Cli cli("test");
        cli.addInt("threads", 1, "pool size");
        const char *argv[] = {"prog", "--threads", threads};
        cli.parse(3, argv);
        return resolveThreads(cli);
    };
    // 2^32 + 1 and 2^32 + 2 would narrow to 1 and 2 threads; 10^8 would
    // try to start them all.
    for (const char *bad : {"0", "-1", "1025", "100000000", "4294967297",
                            "4294967298"})
        EXPECT_EXIT(resolve(bad), testing::ExitedWithCode(exitUsageError),
                    "--threads must be in 1\\.\\.1024")
            << bad;
    EXPECT_EQ(resolve("1"), 1);
    EXPECT_EQ(resolve("1024"), static_cast<int>(maxThreads));
}

// ---- job filter -----------------------------------------------------

TEST(JobFilter, DropsRejectedJobs)
{
    SweepSpec spec;
    spec.archs = {sparseBStar(), sparseAStar()};
    spec.networks = {networkByName("alexnet"),
                     networkByName("googlenet")};
    spec.categories = {DnnCategory::B, DnnCategory::A};
    ASSERT_EQ(expandSweep(spec).size(), 8u);
    // Non-rectangular pairing: each arch only in its own category.
    spec.jobFilter = [](const SweepJob &job) {
        return job.archIndex == job.categoryIndex;
    };
    const auto jobs = expandSweep(spec);
    ASSERT_EQ(jobs.size(), 4u);
    for (const auto &job : jobs)
        EXPECT_EQ(job.archIndex, job.categoryIndex);
}

// ---- end-to-end runExperiment ---------------------------------------

/** Smoke fidelity for the end-to-end runs. */
RunOptions
tinyRun()
{
    RunOptions run;
    run.sim.sampleFraction = 0.02;
    run.sim.minSampledTiles = 4;
    run.rowCap = 8;
    return run;
}

TEST(RunExperiment, RenderSeesTheSweep)
{
    const Experiment &exp = *findExperiment("zz_tiny");
    const auto outcome = runExperiment(exp, tinyRun());
    ASSERT_TRUE(outcome.hasSweep);
    ASSERT_EQ(outcome.tables.size(), 1u);
    EXPECT_EQ(outcome.tables[0].cell(0, 0), "Sparse.B*");
    ASSERT_EQ(outcome.sweep.results().size(), 1u);
}

TEST(RunExperiment, GridOverrideReplacesAxes)
{
    const Experiment &exp = *findExperiment("zz_tiny");
    ExperimentRunConfig config;
    config.gridOverride = "seed=1..3";
    const auto outcome = runExperiment(exp, tinyRun(), config);
    EXPECT_EQ(outcome.sweep.results().size(), 3u);
    EXPECT_EQ(outcome.spec.optionVariants.size(), 3u);
}

TEST(RunExperiment, GridOverrideMergesIntoTheOwnAxes)
{
    // zz_axes already sweeps weight_lane_bias (2 values); the override
    // replaces that axis's values in place and appends a seed axis, so
    // the expansion stays a single merged grid with full coordinates.
    const Experiment &exp = *findExperiment("zz_axes");
    ExperimentRunConfig config;
    config.gridOverride = "weight_lane_bias=0.5,seed=1..2";
    const auto outcome = runExperiment(exp, tinyRun(), config);
    ASSERT_EQ(outcome.spec.optionVariants.size(), 2u);
    EXPECT_EQ(outcome.spec.optionVariants[0].weightLaneBias, 0.5);
    EXPECT_EQ(outcome.spec.optionVariants[0].seed, 1u);
    EXPECT_EQ(outcome.spec.optionVariants[1].seed, 2u);
    ASSERT_EQ(outcome.spec.optionCoords.size(), 2u);
    EXPECT_EQ(outcome.spec.optionCoords[0],
              (std::vector<AxisCoordinate>{{"weight_lane_bias", "0.5"},
                                           {"seed", "1"}}));
}

TEST(RunExperimentDeathTest, OverridingALockedAxisIsFatal)
{
    const Experiment &exp = *findExperiment("zz_axes");
    ExperimentRunConfig config;
    config.gridOverride = "arch=Griffin";
    EXPECT_EXIT(runExperiment(exp, tinyRun(), config),
                testing::ExitedWithCode(exitUsageError), "structural");
}

TEST(RunExperimentDeathTest, MalformedOverrideIsFatalWithoutASweep)
{
    // The override is parsed before any plan, so a render-only run
    // rejects it too instead of ignoring it.
    const Experiment &exp = *findExperiment("aa_static");
    ExperimentRunConfig config;
    config.gridOverride = "foo";
    EXPECT_EXIT(runExperiment(exp, RunOptions{}, config),
                testing::ExitedWithCode(exitUsageError),
                "'foo' appears before any 'axis=value' item");
}

TEST(RunExperiment, RenderOnlyExperimentHasNoSweep)
{
    const Experiment &exp = *findExperiment("aa_static");
    const auto outcome = runExperiment(exp, RunOptions{});
    EXPECT_FALSE(outcome.hasSweep);
    ASSERT_EQ(outcome.tables.size(), 1u);
    EXPECT_EQ(outcome.tables[0].rows(), 0u);
}

} // namespace
} // namespace griffin
