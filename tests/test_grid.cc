/**
 * @file
 * Tests for the named-axis grid API (runtime/grid.hh): compact-syntax
 * parsing, range expansion, builder chaining, deterministic expansion
 * onto SweepSpec with axis-coordinate records, the fatal()
 * diagnostics for malformed specs, and a seeded mutation fuzz of the
 * grid text.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <sstream>

#include <sys/wait.h>

#include "arch/presets.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "runtime/grid.hh"
#include "runtime/result_sink.hh"
#include "runtime/runner.hh"
#include "workloads/network.hh"

namespace griffin {
namespace {

// ---- parsing --------------------------------------------------------

/** Grid points: the product of the axes' value counts. */
std::size_t
pointCount(const GridSpec &grid)
{
    std::size_t n = 1;
    for (const auto &ax : grid.axes())
        n *= ax.values.size();
    return n;
}

TEST(GridParse, NumericRanges)
{
    const auto grid =
        GridSpec::parse("weight_lane_bias=0:1:0.25,seed=1..4");
    ASSERT_EQ(grid.axes().size(), 2u);
    EXPECT_EQ(grid.axes()[0].name, "weight_lane_bias");
    EXPECT_EQ(grid.axes()[0].values,
              (std::vector<std::string>{"0", "0.25", "0.5", "0.75",
                                        "1"}));
    EXPECT_EQ(grid.axes()[1].name, "seed");
    EXPECT_EQ(grid.axes()[1].values,
              (std::vector<std::string>{"1", "2", "3", "4"}));
    EXPECT_EQ(pointCount(grid), 20u);
}

TEST(GridParse, SteppedIntegerRange)
{
    const auto grid = GridSpec::parse("row_cap=16:64:16");
    EXPECT_EQ(grid.axes()[0].values,
              (std::vector<std::string>{"16", "32", "48", "64"}));
}

TEST(GridParse, CommaListsExtendThePreviousAxis)
{
    // Items without '=' continue the previous axis's value list, so
    // name lists need no special quoting.
    const auto grid =
        GridSpec::parse("arch=Griffin,Sparse.B*,category=b,ab");
    ASSERT_EQ(grid.axes().size(), 2u);
    EXPECT_EQ(grid.axes()[0].values,
              (std::vector<std::string>{"Griffin", "Sparse.B*"}));
    EXPECT_EQ(grid.axes()[1].values,
              (std::vector<std::string>{"b", "ab"}));
}

TEST(GridParse, RoutingSpecArchValuesSurviveTheirCommas)
{
    const auto grid =
        GridSpec::parse("arch=B(2,0,0,off),B(2,1,0,on),seed=7");
    ASSERT_EQ(grid.axes().size(), 2u);
    EXPECT_EQ(grid.axes()[0].values,
              (std::vector<std::string>{"B(2,0,0,off)",
                                        "B(2,1,0,on)"}));
}

TEST(GridParse, BoolTokensAreCanonicalized)
{
    const auto grid = GridSpec::parse("enforce_dram_bound=on,off");
    EXPECT_EQ(grid.axes()[0].values,
              (std::vector<std::string>{"true", "false"}));
}

TEST(GridParse, WhitespaceIsTrimmed)
{
    const auto grid = GridSpec::parse(" seed = 2..3 , row_cap = 8 ");
    ASSERT_EQ(grid.axes().size(), 2u);
    EXPECT_EQ(grid.axes()[0].values,
              (std::vector<std::string>{"2", "3"}));
    EXPECT_EQ(grid.axes()[1].values,
              (std::vector<std::string>{"8"}));
}

TEST(GridParse, MixedRangeAndLiteralTokens)
{
    const auto grid = GridSpec::parse("seed=1..3,9");
    EXPECT_EQ(grid.axes()[0].values,
              (std::vector<std::string>{"1", "2", "3", "9"}));
}

// ---- builder --------------------------------------------------------

TEST(GridBuilder, ChainsAndExpandsTokens)
{
    GridSpec grid;
    grid.axis("arch", {"Griffin"})
        .axis("weight_lane_bias", {0.25, 0.75})
        .axis("seed", {"1..2"});
    ASSERT_EQ(grid.axes().size(), 3u);
    EXPECT_TRUE(grid.has("seed"));
    EXPECT_FALSE(grid.has("row_cap"));
    EXPECT_EQ(grid.axes()[1].values,
              (std::vector<std::string>{"0.25", "0.75"}));
    EXPECT_EQ(grid.axes()[2].values,
              (std::vector<std::string>{"1", "2"}));
    EXPECT_EQ(pointCount(grid), 4u);
}

// ---- expansion onto SweepSpec ---------------------------------------

SweepSpec
tinyBase()
{
    SweepSpec base;
    base.archs = {griffinArch()};
    base.networks = {alexNet()};
    base.categories = {DnnCategory::B};
    RunOptions fast;
    fast.sim.sampleFraction = 0.02;
    fast.sim.minSampledTiles = 2;
    fast.rowCap = 16;
    base.optionVariants = {fast};
    return base;
}

TEST(GridExpand, CartesianProductInDeclarationOrder)
{
    GridSpec grid;
    grid.axis("weight_lane_bias", {0.25, 0.75}).axis("seed", {"1..2"});
    const auto spec = grid.toSweepSpec(tinyBase());

    // First declared axis varies slowest.
    ASSERT_EQ(spec.optionVariants.size(), 4u);
    EXPECT_DOUBLE_EQ(spec.optionVariants[0].weightLaneBias, 0.25);
    EXPECT_EQ(spec.optionVariants[0].seed, 1u);
    EXPECT_DOUBLE_EQ(spec.optionVariants[1].weightLaneBias, 0.25);
    EXPECT_EQ(spec.optionVariants[1].seed, 2u);
    EXPECT_DOUBLE_EQ(spec.optionVariants[2].weightLaneBias, 0.75);
    EXPECT_EQ(spec.optionVariants[2].seed, 1u);
    EXPECT_DOUBLE_EQ(spec.optionVariants[3].weightLaneBias, 0.75);
    EXPECT_EQ(spec.optionVariants[3].seed, 2u);

    // Every variant's coordinates are recorded in axis order.
    ASSERT_EQ(spec.optionCoords.size(), 4u);
    EXPECT_EQ(spec.optionCoords[0],
              (std::vector<AxisCoordinate>{{"weight_lane_bias", "0.25"},
                                           {"seed", "1"}}));
    EXPECT_EQ(spec.optionCoords[3],
              (std::vector<AxisCoordinate>{{"weight_lane_bias", "0.75"},
                                           {"seed", "2"}}));

    // Unswept base fields survive into every variant.
    for (const auto &opt : spec.optionVariants) {
        EXPECT_EQ(opt.rowCap, 16);
        EXPECT_DOUBLE_EQ(opt.sim.sampleFraction, 0.02);
    }
}

TEST(GridExpand, IdentityAxesOverrideTheBase)
{
    GridSpec grid;
    grid.axis("arch", {"Sparse.B*", "B(2,0,0,off)"})
        .axis("network", {"bert"})
        .axis("category", {"dense", "ab"});
    const auto spec = grid.toSweepSpec(tinyBase());
    ASSERT_EQ(spec.archs.size(), 2u);
    EXPECT_EQ(spec.archs[0].name, "Sparse.B*");
    EXPECT_EQ(spec.archs[1].name, "B(2,0,0,off)");
    ASSERT_EQ(spec.networks.size(), 1u);
    EXPECT_EQ(spec.networks[0].name, "BERT");
    EXPECT_EQ(spec.categories,
              (std::vector<DnnCategory>{DnnCategory::Dense,
                                        DnnCategory::AB}));
    // No RunOptions axis: one variant, one (empty) coordinate record.
    EXPECT_EQ(spec.optionVariants.size(), 1u);
    ASSERT_EQ(spec.optionCoords.size(), 1u);
    EXPECT_TRUE(spec.optionCoords[0].empty());
}

TEST(GridExpand, JobsCarryTheirCoordinates)
{
    GridSpec grid;
    grid.axis("weight_lane_bias", {0.25, 0.75});
    const auto spec = grid.toSweepSpec(tinyBase());
    const auto jobs = expandSweep(spec);
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].coords,
              (std::vector<AxisCoordinate>{
                  {"weight_lane_bias", "0.25"}}));
    EXPECT_EQ(jobs[1].coords,
              (std::vector<AxisCoordinate>{
                  {"weight_lane_bias", "0.75"}}));
}

// ---- end-to-end: distinct self-describing rows ----------------------

TEST(GridSweep, TwoVariantSweepProducesDistinctRows)
{
    // Regression for the pre-grid API: rows from different
    // optionVariants were indistinguishable in the serialized output.
    GridSpec grid;
    grid.axis("weight_lane_bias", {0.25, 0.75});
    const auto spec = grid.toSweepSpec(tinyBase());
    const auto sweep = runSweep(spec, 2);
    ASSERT_EQ(sweep.results().size(), 2u);

    std::ostringstream row0, row1;
    const auto rows = sweepRows(sweep);
    writeJson(row0, {rows[0]});
    writeJson(row1, {rows[1]});
    EXPECT_NE(row0.str(), row1.str())
        << "rows from different variants must be distinguishable";
    EXPECT_NE(row0.str().find("\"weight_lane_bias\": 0.25"),
              std::string::npos);
    EXPECT_NE(row1.str().find("\"weight_lane_bias\": 0.75"),
              std::string::npos);
    EXPECT_NE(row0.str().find(
                  "\"coords\": {\"weight_lane_bias\": \"0.25\"}"),
              std::string::npos);
}

TEST(GridSweep, AnnotatedJsonIsThreadCountInvariant)
{
    GridSpec grid;
    grid.axis("weight_lane_bias", {0.25, 0.75}).axis("seed", {"1..2"});
    const auto spec = grid.toSweepSpec(tinyBase());
    std::ostringstream serial, parallel;
    writeJson(serial, runSweep(spec, 1));
    writeJson(parallel, runSweep(spec, 4));
    EXPECT_EQ(serial.str(), parallel.str());
}

// ---- mutation fuzz --------------------------------------------------

/** Valid grid texts the mutations start from: every axis kind, every
 *  range form, routing-spec arch names and padding. */
const char *const kValidGrids[] = {
    "weight_lane_bias=0:1:0.25,seed=1..4",
    "arch=Griffin,Sparse.B*,category=b,ab",
    "arch=B(2,0,0,off),B(2,1,0,on),seed=7",
    "enforce_dram_bound=on,off,row_cap=16:64:16",
    "network=alexnet,bert,act_run_length=1:4:1.5",
    "schedule_policy=declaration,recompute,sram_budget_kb=64,128",
    " seed = 2..3 , row_cap = 8 ",
    "sample_fraction=0.01,0.02,category=dense,a",
};

/** Bytes the mutations insert: the grammar's own punctuation, digits,
 *  letters, blanks and a high byte. */
constexpr char kMutationBytes[] = "=,.:()*+-eE019aBx \t\xff";

/** `text` with 1..3 random byte deletions, insertions, replacements
 *  or duplicated spans. */
std::string
mutate(std::string text, Rng &rng)
{
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    };
    const auto byte = [&] {
        return kMutationBytes[pick(sizeof(kMutationBytes) - 1)];
    };
    const auto edits = rng.uniformInt(1, 3);
    for (std::int64_t e = 0; e < edits; ++e) {
        const std::size_t at = pick(text.size() + 1);
        switch (rng.uniformInt(0, 3)) {
          case 0:
            if (at < text.size())
                text.erase(at, 1);
            break;
          case 1:
            text.insert(at, 1, byte());
            break;
          case 2:
            if (at < text.size())
                text[at] = byte();
            break;
          default:
            text.insert(at, text.substr(at, pick(8) + 1));
            break;
        }
    }
    return text;
}

TEST(GridFuzzDeathTest, MutatedTextExitsZeroOrTwo)
{
    // Grid text is the one structured external input griffin_bench
    // parses, so every byte string must either expand (exit 0) or be
    // rejected with a diagnostic (exit 2): never an abort, a sanitizer
    // report or a signal.  Each mutation runs in its own child; the
    // suite is declared before GridDeathTest so it runs first, while
    // the forked process is still small (about 15 ms a case under
    // ASan, three times that after the expansion-cap cases).
    const auto zero_or_two = [](int status) {
        return WIFEXITED(status) && (WEXITSTATUS(status) == exitSuccess ||
                                     WEXITSTATUS(status) == exitUsageError);
    };
    Rng rng(20);
    for (int i = 0; i < 300; ++i) {
        const std::string text = mutate(
            kValidGrids[static_cast<std::size_t>(i) % std::size(kValidGrids)],
            rng);
        EXPECT_EXIT(
            {
                expandSweep(GridSpec::parse(text).toSweepSpec(tinyBase()));
                std::exit(exitSuccess);
            },
            zero_or_two, "")
            << "mutation " << i << ": '" << text << "'";
    }
}

// ---- diagnostics ----------------------------------------------------

TEST(GridDeathTest, UnknownAxisSuggestsNearestName)
{
    GridSpec grid;
    EXPECT_EXIT(grid.axis("weight_lane_bis", {"0.5"}),
                testing::ExitedWithCode(exitUsageError),
                "did you mean 'weight_lane_bias'");
    EXPECT_EXIT(GridSpec::parse("sed=1..4"),
                testing::ExitedWithCode(exitUsageError), "did you mean 'seed'");
}

TEST(GridDeathTest, MalformedRangesReportTheToken)
{
    EXPECT_EXIT(GridSpec::parse("seed=8..1"),
                testing::ExitedWithCode(exitUsageError),
                "malformed range '8..1' on axis 'seed'");
    EXPECT_EXIT(GridSpec::parse("row_cap=1:64:0"),
                testing::ExitedWithCode(exitUsageError),
                "malformed range '1:64:0'");
    EXPECT_EXIT(GridSpec::parse("weight_lane_bias=0:1"),
                testing::ExitedWithCode(exitUsageError),
                "expected <lo>:<hi>:<step>");
    EXPECT_EXIT(GridSpec::parse("seed=1..x"),
                testing::ExitedWithCode(exitUsageError), "not an integer");
    EXPECT_EXIT(GridSpec::parse("weight_lane_bias=0.5..1.5"),
                testing::ExitedWithCode(exitUsageError),
                "'..' ranges are integer-only");

    // Each range is counted before it is expanded: a huge one fails at
    // once rather than building billions of strings, and a NaN or
    // infinite step count fails too.
    EXPECT_EXIT(GridSpec::parse("seed=1..3000000000"),
                testing::ExitedWithCode(exitUsageError),
                "range '1..3000000000' on axis 'seed' expands to more "
                "than 65536 values");
    EXPECT_EXIT(GridSpec::parse("sample_fraction=0:1e18:1e-9"),
                testing::ExitedWithCode(exitUsageError),
                "range '0:1e18:1e-9' on axis 'sample_fraction' expands "
                "to more than 65536 values");
    EXPECT_EXIT(GridSpec::parse("act_run_length=1:inf:1"),
                testing::ExitedWithCode(exitUsageError),
                "expands to more than 65536 values");
    EXPECT_EXIT(GridSpec::parse("seed=1..40000,50001..90000"),
                testing::ExitedWithCode(exitUsageError),
                "grid axis 'seed' has more than 65536 values");

    // Ranges ending at INT64_MAX stop there instead of overflowing.
    EXPECT_EQ(GridSpec::parse("seed=9223372036854775806.."
                              "9223372036854775807")
                  .axes()[0]
                  .values,
              (std::vector<std::string>{"9223372036854775806",
                                        "9223372036854775807"}));
    EXPECT_EQ(GridSpec::parse("seed=9223372036854775800:"
                              "9223372036854775807:5")
                  .axes()[0]
                  .values,
              (std::vector<std::string>{"9223372036854775800",
                                        "9223372036854775805"}));
    const auto cap = GridSpec::parse("seed=1..65536");
    EXPECT_EQ(cap.axes()[0].values.size(), maxGridAxisValues);
}

TEST(GridDeathTest, BadValuesReportTheToken)
{
    EXPECT_EXIT(GridSpec::parse("weight_lane_bias=fast"),
                testing::ExitedWithCode(exitUsageError),
                "'fast' is not a number");
    EXPECT_EXIT(GridSpec::parse("enforce_dram_bound=maybe"),
                testing::ExitedWithCode(exitUsageError),
                "'maybe' is not a boolean");

    // Integer axes are range-checked where they are parsed: a negative
    // seed used to run as 2^64 - 3, and sram_budget_kb must fit its
    // byte count.  A zero row cap, which used to die once per worker
    // mid-sweep, is the expanded spec's validate() error.
    EXPECT_EXIT(GridSpec::parse("seed=-3"),
                testing::ExitedWithCode(exitUsageError),
                "grid value '-3' on axis 'seed' is outside "
                "0..9223372036854775807");
    EXPECT_EXIT(GridSpec::parse("seed=-2..2"),
                testing::ExitedWithCode(exitUsageError),
                "grid value '-2' on axis 'seed' is outside");
    EXPECT_EXIT(GridSpec::parse("row_cap=0").toSweepSpec(tinyBase()),
                testing::ExitedWithCode(exitUsageError),
                "sweep option row_cap 0 is not positive");
    EXPECT_EXIT(GridSpec::parse("sram_budget_kb=-64"),
                testing::ExitedWithCode(exitUsageError),
                "grid value '-64' on axis 'sram_budget_kb' is outside "
                "0..9007199254740991");
    EXPECT_EXIT(GridSpec::parse("sram_budget_kb=9007199254740992"),
                testing::ExitedWithCode(exitUsageError),
                "grid value '9007199254740992' on axis 'sram_budget_kb' "
                "is outside");
    EXPECT_EQ(GridSpec::parse("sram_budget_kb=9007199254740991")
                  .toSweepSpec(tinyBase())
                  .optionVariants[0]
                  .sramBudgetBytes,
              INT64_MAX - 1023);
}

TEST(GridDeathTest, ExpansionIsCappedBeforeItIsBuilt)
{
    // 3.6e9 variants: counted and refused, never allocated.
    EXPECT_EXIT(GridSpec::parse("seed=1..60000,act_run_length=1:60000:1")
                    .toSweepSpec(tinyBase()),
                testing::ExitedWithCode(exitUsageError),
                "grid expands to more than 65536 RunOptions variants");
    EXPECT_EXIT(GridSpec::parse("seed=1..257,row_cap=1..256")
                    .toSweepSpec(tinyBase()),
                testing::ExitedWithCode(exitUsageError),
                "more than 65536 RunOptions variants");
    // 65536 variants x 6 networks x 3 categories = 1179648 jobs.
    EXPECT_EXIT(GridSpec::parse("seed=1..65536,network=alexnet,resnet50,"
                                "googlenet,inceptionv3,mobilenetv2,bert,"
                                "category=a,b,ab")
                    .toSweepSpec(tinyBase()),
                testing::ExitedWithCode(exitUsageError),
                "grid expands to more than 1048576 jobs");
    // Both caps are inclusive.
    EXPECT_EQ(GridSpec::parse("seed=1..256,row_cap=1..256")
                  .toSweepSpec(tinyBase())
                  .optionVariants.size(),
              maxGridVariants);
}

TEST(GridDeathTest, StructuralErrorsAreFatal)
{
    for (const char *empty : {"", " ", ",", " , ,"})
        EXPECT_EXIT(GridSpec::parse(empty),
                    testing::ExitedWithCode(exitUsageError),
                    "empty grid spec")
            << "'" << empty << "'";
    EXPECT_EXIT(GridSpec::parse("0.5,seed=1"),
                testing::ExitedWithCode(exitUsageError),
                "before any 'axis=value' item");
    EXPECT_EXIT(GridSpec::parse("seed=1,seed=2"),
                testing::ExitedWithCode(exitUsageError), "declared twice");
    EXPECT_EXIT(GridSpec::parse("seed="), testing::ExitedWithCode(exitUsageError),
                "has no values");

    GridSpec grid;
    grid.axis("seed", {"1..2"});
    SweepSpec two_variants = tinyBase();
    two_variants.optionVariants.push_back(
        two_variants.optionVariants[0]);
    EXPECT_EXIT(grid.toSweepSpec(two_variants),
                testing::ExitedWithCode(exitUsageError),
                "exactly one base RunOptions");
}

} // namespace
} // namespace griffin
