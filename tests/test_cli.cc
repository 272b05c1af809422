/**
 * @file
 * Tests for the command-line flag parser.
 */

#include <gtest/gtest.h>

#include "common/cli.hh"
#include "common/logging.hh"

namespace griffin {
namespace {

Cli
makeCli()
{
    Cli cli("test program");
    cli.addInt("iters", 10, "iteration count");
    cli.addDouble("sparsity", 0.5, "target sparsity");
    cli.addString("network", "resnet50", "benchmark network");
    cli.addBool("exact", false, "disable tile sampling");
    return cli;
}

TEST(Cli, DefaultsApplyWithoutArgs)
{
    auto cli = makeCli();
    const char *argv[] = {"prog"};
    cli.parse(1, argv);
    EXPECT_EQ(cli.getInt("iters"), 10);
    EXPECT_DOUBLE_EQ(cli.getDouble("sparsity"), 0.5);
    EXPECT_EQ(cli.getString("network"), "resnet50");
    EXPECT_FALSE(cli.getBool("exact"));
}

TEST(Cli, EqualsFormParses)
{
    auto cli = makeCli();
    const char *argv[] = {"prog", "--iters=42", "--sparsity=0.8",
                          "--network=bert", "--exact=true"};
    cli.parse(5, argv);
    EXPECT_EQ(cli.getInt("iters"), 42);
    EXPECT_DOUBLE_EQ(cli.getDouble("sparsity"), 0.8);
    EXPECT_EQ(cli.getString("network"), "bert");
    EXPECT_TRUE(cli.getBool("exact"));
}

TEST(Cli, SpaceFormAndBareBool)
{
    auto cli = makeCli();
    const char *argv[] = {"prog", "--iters", "7", "--exact"};
    cli.parse(4, argv);
    EXPECT_EQ(cli.getInt("iters"), 7);
    EXPECT_TRUE(cli.getBool("exact"));
}

TEST(Cli, PositionalArgsReturned)
{
    auto cli = makeCli();
    const char *argv[] = {"prog", "alpha", "--iters=1", "beta"};
    auto pos = cli.parse(4, argv);
    ASSERT_EQ(pos.size(), 2u);
    EXPECT_EQ(pos[0], "alpha");
    EXPECT_EQ(pos[1], "beta");
}

TEST(Cli, BoolAcceptsOnOffSynonyms)
{
    auto cli = makeCli();
    const char *argv[] = {"prog", "--exact=on"};
    cli.parse(2, argv);
    EXPECT_TRUE(cli.getBool("exact"));
}

TEST(Cli, BoolConsumesSeparateTokenValue)
{
    // "--exact off" must read as exact=false, not exact=true with a
    // stray "off" positional.
    auto cli = makeCli();
    const char *argv[] = {"prog", "--exact", "off"};
    const auto pos = cli.parse(3, argv);
    EXPECT_FALSE(cli.getBool("exact"));
    EXPECT_TRUE(pos.empty());
}

TEST(Cli, BoolSeparateTokenCoversAllSynonyms)
{
    for (const char *token : {"true", "on", "1"}) {
        auto cli = makeCli();
        const char *argv[] = {"prog", "--exact", token};
        cli.parse(3, argv);
        EXPECT_TRUE(cli.getBool("exact")) << token;
    }
    for (const char *token : {"false", "off", "0"}) {
        auto cli = makeCli();
        const char *argv[] = {"prog", "--exact", token};
        cli.parse(3, argv);
        EXPECT_FALSE(cli.getBool("exact")) << token;
    }
}

TEST(Cli, BareBoolBeforeNonBoolTokenStaysTrue)
{
    // A following token that is not a boolean literal is a positional,
    // and the bare switch still means true.
    auto cli = makeCli();
    const char *argv[] = {"prog", "--exact", "beta"};
    const auto pos = cli.parse(3, argv);
    EXPECT_TRUE(cli.getBool("exact"));
    ASSERT_EQ(pos.size(), 1u);
    EXPECT_EQ(pos[0], "beta");
}

TEST(Cli, BareBoolAtEndOfLineIsTrue)
{
    auto cli = makeCli();
    const char *argv[] = {"prog", "--exact"};
    cli.parse(2, argv);
    EXPECT_TRUE(cli.getBool("exact"));
}

TEST(CliDeathTest, UnknownFlagIsFatal)
{
    auto cli = makeCli();
    const char *argv[] = {"prog", "--bogus=1"};
    EXPECT_EXIT(cli.parse(2, argv), testing::ExitedWithCode(exitUsageError),
                "unknown flag --bogus");
}

TEST(CliDeathTest, NonNumericIntIsFatal)
{
    auto cli = makeCli();
    const char *argv[] = {"prog", "--iters=abc"};
    cli.parse(2, argv);
    EXPECT_EXIT(cli.getInt("iters"), testing::ExitedWithCode(exitUsageError),
                "expects an integer");

    // strtoll clamps an out-of-range value to INT64_MAX/MIN; it must
    // not run as that clamped number.
    for (const char *huge :
         {"--iters=99999999999999999999", "--iters=-99999999999999999999"}) {
        auto wide = makeCli();
        const char *argv_huge[] = {"prog", huge};
        wide.parse(2, argv_huge);
        EXPECT_EXIT(wide.getInt("iters"),
                    testing::ExitedWithCode(exitUsageError),
                    "is out of range for a 64-bit integer")
            << huge;
    }
    auto edge = makeCli();
    const char *argv_edge[] = {"prog", "--iters=9223372036854775807"};
    edge.parse(2, argv_edge);
    EXPECT_EQ(edge.getInt("iters"), INT64_MAX);
}

TEST(CliDeathTest, EmptyIntValueIsFatal)
{
    // strtoll("") consumes nothing yet leaves *end == '\0', so an
    // empty value used to parse as 0.
    auto cli = makeCli();
    const char *argv[] = {"prog", "--iters="};
    cli.parse(2, argv);
    EXPECT_EXIT(cli.getInt("iters"), testing::ExitedWithCode(exitUsageError),
                "expects an integer");
}

TEST(CliDeathTest, EmptyDoubleValueIsFatal)
{
    auto cli = makeCli();
    const char *argv[] = {"prog", "--sparsity="};
    cli.parse(2, argv);
    EXPECT_EXIT(cli.getDouble("sparsity"), testing::ExitedWithCode(exitUsageError),
                "expects a number");
}

TEST(CliDeathTest, TrailingGarbageDoubleIsFatal)
{
    auto cli = makeCli();
    const char *argv[] = {"prog", "--sparsity=0.5x"};
    cli.parse(2, argv);
    EXPECT_EXIT(cli.getDouble("sparsity"), testing::ExitedWithCode(exitUsageError),
                "expects a number");
}

TEST(CliDeathTest, MissingValueIsFatal)
{
    auto cli = makeCli();
    const char *argv[] = {"prog", "--iters"};
    EXPECT_EXIT(cli.parse(2, argv), testing::ExitedWithCode(exitUsageError),
                "expects a value");
}

TEST(Cli, UsageListsFlagsAndDefaults)
{
    auto cli = makeCli();
    const auto u = cli.usage();
    EXPECT_NE(u.find("--iters (default: 10)"), std::string::npos);
    EXPECT_NE(u.find("target sparsity"), std::string::npos);
}

} // namespace
} // namespace griffin
