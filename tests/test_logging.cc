/**
 * @file
 * Tests for the logging / error-reporting substrate.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"

namespace griffin {
namespace {

TEST(Logging, ConcatStreamsHeterogeneousArgs)
{
    EXPECT_EQ(detail::concat("lane ", 3, " of ", 16), "lane 3 of 16");
    EXPECT_EQ(detail::concat(), "");
    EXPECT_EQ(detail::concat(1.5), "1.5");
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("invariant ", 42, " broken"), "invariant 42 broken");
}

TEST(LoggingDeathTest, FatalExitsWithUsageErrorStatus)
{
    // fatal() is the user-error path; its status is distinct from
    // fatalRun()'s so scripts can branch on $? alone.
    EXPECT_EXIT(fatal("bad config"),
                testing::ExitedWithCode(exitUsageError), "bad config");
}

TEST(LoggingDeathTest, FatalRunExitsWithRunFailureStatus)
{
    EXPECT_EXIT(fatalRun("input vanished"),
                testing::ExitedWithCode(exitRunFailure), "input vanished");
}

TEST(Logging, ExitStatusesAreDistinctAndDocumented)
{
    EXPECT_EQ(exitSuccess, 0);
    EXPECT_EQ(exitRunFailure, 1);
    EXPECT_EQ(exitUsageError, 2);
}

TEST(LoggingDeathTest, AssertFiresOnFalse)
{
    EXPECT_DEATH(GRIFFIN_ASSERT(1 == 2, "math is off"),
                 "assertion '1 == 2' failed: math is off");
}

TEST(Logging, AssertPassesOnTrue)
{
    GRIFFIN_ASSERT(2 + 2 == 4);
    SUCCEED();
}

TEST(LoggingDeathTest, LinesCarryMonotonicTimestamp)
{
    // "severity: [+12.345s] msg" — monotonic seconds since process
    // start, fixed three-decimal format, one line per record.
    EXPECT_DEATH(panic("stamped"),
                 "panic: \\[\\+[0-9]+\\.[0-9][0-9][0-9]s\\] stamped");
    EXPECT_EXIT(fatal("stamped too"), testing::ExitedWithCode(exitUsageError),
                "fatal: \\[\\+[0-9]+\\.[0-9][0-9][0-9]s\\] stamped too");
}

TEST(LoggingDeathTest, RecordsNameTheCallSite)
{
    // The "@ file:line" line names the code that called panic, fatal
    // or fatalRun — this file, on the line of each call — not the
    // logging header that implements them.
    const auto at = [](int line) {
        return "@ [^\n]*test_logging\\.cc:" + std::to_string(line) + "\n";
    };
    const auto usage_error = testing::ExitedWithCode(exitUsageError);
    const auto run_failure = testing::ExitedWithCode(exitRunFailure);
    EXPECT_DEATH(panic("located"), at(__LINE__));
    EXPECT_EXIT(fatal("located"), usage_error, at(__LINE__));
    EXPECT_EXIT(fatalRun("located"), run_failure, at(__LINE__));
}

TEST(Logging, WarnAndInformDoNotTerminate)
{
    warn("just a warning ", 1);
    inform("status ", 2);
    SUCCEED();
}

} // namespace
} // namespace griffin
