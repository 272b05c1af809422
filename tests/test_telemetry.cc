/**
 * @file
 * Tests for the telemetry layer: metric registry semantics, span
 * recording across modes and threads, Chrome trace export, the
 * metrics JSON line, and the BENCH_perf.json schema round-trip.
 *
 * Telemetry state is process-global; every test that records spans
 * restores Mode::Off and clears the buffers so tests stay independent
 * in any order.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "runtime/perf_report.hh"
#include "runtime/result_sink.hh"
#include "runtime/telemetry.hh"

namespace griffin_test_support {
// tests/support/telemetry_tu2.cc — spells the "cross_tu_stage"
// literal in its own object file.
void recordCrossTuSpan();
} // namespace griffin_test_support

namespace griffin {
namespace {

/** RAII guard: whatever a test does, later tests start from Off and
 *  empty buffers. */
struct TelemetryReset
{
    TelemetryReset() { reset(); }
    ~TelemetryReset() { reset(); }

    static void
    reset()
    {
        Telemetry::setMode(Telemetry::Mode::Off);
        Telemetry::clear();
    }
};

TEST(MetricsRegistry, CountersGaugesHistogramsAreStable)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("jobs");
    c.add();
    c.add(4);
    EXPECT_EQ(reg.counter("jobs").value(), 5u);
    EXPECT_EQ(&reg.counter("jobs"), &c);

    reg.gauge("wall_ms").set(12.5);
    EXPECT_DOUBLE_EQ(reg.gauge("wall_ms").value(), 12.5);

    Histogram &h = reg.histogram("job_us");
    h.record(3);
    h.record(5);
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 2u);
    EXPECT_EQ(snap.sum, 8u);
    EXPECT_EQ(snap.min, 3u);
    EXPECT_EQ(snap.max, 5u);
    EXPECT_DOUBLE_EQ(snap.mean(), 4.0);

    reg.reset();
    EXPECT_EQ(reg.counter("jobs").value(), 0u);
    EXPECT_DOUBLE_EQ(reg.gauge("wall_ms").value(), 0.0);
    EXPECT_EQ(reg.histogram("job_us").snapshot().count, 0u);
}

TEST(MetricsRegistry, SnapshotIsNameSorted)
{
    MetricsRegistry reg;
    reg.gauge("zeta").set(1.0);
    reg.counter("alpha").add();
    reg.histogram("mid").record(7);
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "alpha");
    EXPECT_EQ(snap[1].name, "mid");
    EXPECT_EQ(snap[2].name, "zeta");
}

TEST(MetricsRegistryDeathTest, KindCollisionPanics)
{
    MetricsRegistry reg;
    reg.counter("shape");
    EXPECT_DEATH(reg.gauge("shape"),
                 "registered as two different kinds");
}

TEST(Histogram, BucketsArePowersOfTwo)
{
    Histogram h;
    h.record(0); // bucket 0
    h.record(1); // bucket 0
    h.record(2); // bucket 1
    h.record(3); // bucket 1
    h.record(4); // bucket 2
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.buckets[0], 2u);
    EXPECT_EQ(snap.buckets[1], 2u);
    EXPECT_EQ(snap.buckets[2], 1u);
    EXPECT_EQ(snap.min, 0u);
    EXPECT_EQ(snap.max, 4u);
}

TEST(Telemetry, OffModeRecordsNothing)
{
    TelemetryReset guard;
    {
        ScopedSpan span("tile_sim");
    }
    EXPECT_EQ(Telemetry::eventCount(), 0u);
    EXPECT_TRUE(Telemetry::stageBreakdown().empty());
}

TEST(Telemetry, AggregateModeKeepsTotalsButNoEvents)
{
    TelemetryReset guard;
    Telemetry::setMode(Telemetry::Mode::Aggregate);
    {
        ScopedSpan span("tile_sim");
    }
    {
        ScopedSpan span("tile_sim");
    }
    EXPECT_EQ(Telemetry::eventCount(), 0u);
    const auto stages = Telemetry::stageBreakdown();
    ASSERT_EQ(stages.size(), 1u);
    EXPECT_EQ(stages[0].stage, "tile_sim");
    EXPECT_EQ(stages[0].count, 2u);
}

TEST(Telemetry, FullModeNestsSpansAndExportsChromeTrace)
{
    TelemetryReset guard;
    Telemetry::setMode(Telemetry::Mode::Full);
    {
        ScopedSpan outer("tile_sim");
        {
            ScopedSpan inner("b_schedule");
        }
    }
    EXPECT_EQ(Telemetry::eventCount(), 2u);

    std::ostringstream os;
    Telemetry::writeChromeTrace(os);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(os.str(), doc, error)) << error;
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    // Find the two X events (skip thread_name metadata) and check the
    // inner span is contained within the outer one.
    const JsonValue *outer_ev = nullptr;
    const JsonValue *inner_ev = nullptr;
    for (const auto &e : events->items) {
        if (e.find("ph")->asString() != "X")
            continue;
        const auto &name = e.find("name")->asString();
        if (name == "tile_sim")
            outer_ev = &e;
        else if (name == "b_schedule")
            inner_ev = &e;
    }
    ASSERT_NE(outer_ev, nullptr);
    ASSERT_NE(inner_ev, nullptr);
    const double outer_ts = outer_ev->find("ts")->asDouble();
    const double outer_end =
        outer_ts + outer_ev->find("dur")->asDouble();
    const double inner_ts = inner_ev->find("ts")->asDouble();
    const double inner_end =
        inner_ts + inner_ev->find("dur")->asDouble();
    EXPECT_GE(inner_ts, outer_ts);
    EXPECT_LE(inner_end, outer_end);
    // Both spans ran on this thread, so they share a tid.
    EXPECT_EQ(outer_ev->find("tid")->asInt(),
              inner_ev->find("tid")->asInt());
}

TEST(Telemetry, ThreadsMergeIntoOneBreakdownButKeepOwnTids)
{
    TelemetryReset guard;
    Telemetry::setMode(Telemetry::Mode::Full);
    constexpr int threads = 4;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([] {
            ScopedSpan span("memory_model");
        });
    for (auto &w : workers)
        w.join();
    {
        ScopedSpan span("memory_model");
    }

    const auto stages = Telemetry::stageBreakdown();
    ASSERT_EQ(stages.size(), 1u);
    EXPECT_EQ(stages[0].stage, "memory_model");
    EXPECT_EQ(stages[0].count, static_cast<std::uint64_t>(threads + 1));

    std::ostringstream os;
    Telemetry::writeChromeTrace(os);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(os.str(), doc, error)) << error;
    std::set<std::int64_t> tids;
    for (const auto &e : doc.find("traceEvents")->items)
        if (e.find("ph")->asString() == "X")
            tids.insert(e.find("tid")->asInt());
    EXPECT_EQ(tids.size(), static_cast<std::size_t>(threads + 1));
}

TEST(Telemetry, SameSpanNameFromTwoTranslationUnitsIsOneStage)
{
    TelemetryReset guard;
    Telemetry::setMode(Telemetry::Mode::Aggregate);
    {
        ScopedSpan span("cross_tu_stage");
    }
    ::griffin_test_support::recordCrossTuSpan();

    // One stage, count 2 — even if the two TUs' identical literals
    // were NOT folded to one address by the linker.  Pointer-keyed
    // aggregation would report two entries (or one, depending on
    // build flags), making stage counts a build artifact.
    const auto stages = Telemetry::stageBreakdown();
    ASSERT_EQ(stages.size(), 1u);
    EXPECT_EQ(stages[0].stage, "cross_tu_stage");
    EXPECT_EQ(stages[0].count, 2u);
}

TEST(Telemetry, ClearDropsEventsAndTotals)
{
    TelemetryReset guard;
    Telemetry::setMode(Telemetry::Mode::Full);
    {
        ScopedSpan span("reduce");
    }
    EXPECT_EQ(Telemetry::eventCount(), 1u);
    Telemetry::clear();
    EXPECT_EQ(Telemetry::eventCount(), 0u);
    EXPECT_TRUE(Telemetry::stageBreakdown().empty());
    // Mode survives clear().
    EXPECT_EQ(Telemetry::mode(), Telemetry::Mode::Full);
}

TEST(ResultSinkMetrics, MetricsJsonLineIsSortedAndParses)
{
    MetricsRegistry reg;
    reg.gauge("sweep.wall_ms").set(1.5);
    reg.counter("sweep.jobs").add(3);
    reg.histogram("pool.job_us").record(10);
    std::ostringstream os;
    writeMetricsJsonLine(os, reg);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(os.str(), doc, error)) << error;
    const JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_EQ(metrics->members.size(), 3u);
    EXPECT_EQ(metrics->members[0].first, "pool.job_us");
    EXPECT_EQ(metrics->members[1].first, "sweep.jobs");
    EXPECT_EQ(metrics->members[2].first, "sweep.wall_ms");
    EXPECT_EQ(metrics->find("sweep.jobs")->asInt(), 3);
    EXPECT_DOUBLE_EQ(metrics->find("sweep.wall_ms")->asDouble(), 1.5);
    EXPECT_EQ(metrics->find("pool.job_us")->find("count")->asInt(), 1);
}

PerfDocument
samplePerfDocument()
{
    PerfDocument doc;
    doc.threads = 4;
    doc.sample = 0.02;
    doc.rowCap = 8;
    doc.seed = 1;
    doc.totalWallMs = 123.5;
    PerfEntry entry;
    entry.experiment = "fig5";
    entry.jobs = 144;
    entry.wallMs = 100.25;
    entry.jobsPerSec = 1436.4;
    entry.threadUtilization = 0.93;
    entry.poolSteals = 7;
    entry.poolBusyMs = 372.9;
    entry.stages.push_back({"b_schedule", 24144, 48086.8});
    entry.stages.push_back({"tile_sim", 6648, 48173.5});
    doc.suite.push_back(std::move(entry));
    return doc;
}

TEST(PerfReport, WriteParsesBackIdentically)
{
    const PerfDocument doc = samplePerfDocument();
    std::ostringstream os;
    writePerfJson(os, doc);

    PerfDocument parsed;
    std::string error;
    ASSERT_TRUE(parsePerfDocument(os.str(), parsed, error)) << error;
    EXPECT_EQ(parsed.schemaVersion, perfSchemaVersion);
    EXPECT_EQ(parsed.threads, doc.threads);
    EXPECT_DOUBLE_EQ(parsed.sample, doc.sample);
    EXPECT_EQ(parsed.rowCap, doc.rowCap);
    EXPECT_EQ(parsed.seed, doc.seed);
    EXPECT_DOUBLE_EQ(parsed.totalWallMs, doc.totalWallMs);
    ASSERT_EQ(parsed.suite.size(), 1u);
    const PerfEntry &e = parsed.suite[0];
    EXPECT_EQ(e.experiment, "fig5");
    EXPECT_EQ(e.jobs, 144u);
    EXPECT_DOUBLE_EQ(e.wallMs, 100.25);
    EXPECT_EQ(e.poolSteals, 7u);
    ASSERT_EQ(e.stages.size(), 2u);
    EXPECT_EQ(e.stages[0].stage, "b_schedule");
    EXPECT_EQ(e.stages[0].count, 24144u);

    // Serialization of equal documents is deterministic.
    std::ostringstream again;
    writePerfJson(again, parsed);
    EXPECT_EQ(os.str(), again.str());
}

TEST(PerfReport, ValidationRejectsBadDocuments)
{
    PerfDocument parsed;
    std::string error;

    EXPECT_FALSE(parsePerfDocument("{not json", parsed, error));
    EXPECT_FALSE(error.empty());

    EXPECT_FALSE(parsePerfDocument("{}", parsed, error));
    EXPECT_NE(error.find("schema"), std::string::npos);

    EXPECT_FALSE(parsePerfDocument(
        R"({"schema": "something_else", "schema_version": 1})", parsed,
        error));
    EXPECT_NE(error.find("griffin_bench_perf"), std::string::npos);

    // A future schema version must be rejected, not half-read.
    std::ostringstream os;
    PerfDocument doc = samplePerfDocument();
    doc.schemaVersion = perfSchemaVersion + 1;
    writePerfJson(os, doc);
    EXPECT_FALSE(parsePerfDocument(os.str(), parsed, error));
    EXPECT_NE(error.find("schema_version"), std::string::npos);

    // A suite entry missing a required field fails the whole parse.
    EXPECT_FALSE(parsePerfDocument(
        R"({"schema": "griffin_bench_perf", "schema_version": 1,
            "threads": 1,
            "fidelity": {"sample": 0.02, "rowcap": 8, "seed": 1},
            "total_wall_ms": 1.0,
            "suite": [{"experiment": "fig5"}]})",
        parsed, error));
    EXPECT_NE(error.find("suite entry"), std::string::npos);
}

TEST(PerfReport, CompareRendersSummaryAndStageTables)
{
    const PerfDocument old_doc = samplePerfDocument();
    PerfDocument new_doc = samplePerfDocument();
    new_doc.suite[0].wallMs = 50.125; // 2x faster
    new_doc.suite[0].stages[0].totalMs = 24043.4;

    const auto tables = renderPerfCompare(old_doc, new_doc);
    ASSERT_EQ(tables.size(), 2u);
    EXPECT_EQ(tables[0].rows(), 1u);
    EXPECT_EQ(tables[0].cell(0, 0), "fig5");
    EXPECT_EQ(tables[0].cell(0, 3), "-50.0%");
    EXPECT_EQ(tables[1].rows(), 2u);
    EXPECT_EQ(tables[1].cell(0, 1), "b_schedule");
    EXPECT_EQ(tables[1].cell(0, 4), "-50.0%");
}

} // namespace
} // namespace griffin
