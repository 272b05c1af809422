/**
 * @file
 * Tests for the telemetry layer: metric registry semantics, span
 * recording on and off and across threads, Chrome trace export, the
 * stage spans of one layer, and the metrics JSON line.
 *
 * Telemetry state is process-global; every test that records spans
 * switches recording off and clears the buffers afterwards so tests
 * stay independent in any order.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "arch/presets.hh"
#include "griffin/accelerator.hh"
#include "runtime/result_sink.hh"
#include "runtime/telemetry.hh"
#include "support/json.hh"
#include "workloads/network.hh"

namespace griffin {
namespace {

/** RAII guard: whatever a test does, later tests start with recording
 *  off and empty buffers. */
struct TelemetryReset
{
    TelemetryReset() { reset(); }
    ~TelemetryReset() { reset(); }

    static void
    reset()
    {
        Telemetry::setEnabled(false);
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

TEST(Telemetry, DisabledRecordsNothing)
{
    TelemetryReset guard;
    {
        ScopedSpan span("tile_sim");
    }
    EXPECT_EQ(Telemetry::eventCount(), 0u);
    std::ostringstream os;
    Telemetry::writeChromeTrace(os);
    EXPECT_EQ(os.str(),
              "{\"displayTimeUnit\": \"ms\", \"traceEvents\": []}\n");
}

TEST(Telemetry, EnabledNestsSpansAndExportsChromeTrace)
{
    TelemetryReset guard;
    Telemetry::setEnabled(true);
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

TEST(Telemetry, LayerSpansNameTheirStagesAndGenerationIsTopLevel)
{
    // A layer generates the sides it reads before its simulator's span
    // opens, so gen_a and gen_b nest in no other span: on SparTen,
    // which runs inside a sparten span, and on a dual vector core,
    // whose stages nest inside tile_sim.
    RunOptions opt;
    opt.rowCap = 8;
    opt.sim.sampleFraction = 0.25;
    const struct
    {
        ArchConfig arch;
        const char *stage;
    } cases[] = {{sparTenAB(), "sparten"}, {griffinArch(), "tile_sim"}};
    for (const auto &c : cases) {
        TelemetryReset guard;
        Telemetry::setEnabled(true);
        Accelerator(c.arch).runLayer(alexNet(), 1, DnnCategory::AB, opt);
        Telemetry::setEnabled(false);
        std::ostringstream os;
        Telemetry::writeChromeTrace(os);
        JsonValue doc;
        std::string error;
        ASSERT_TRUE(parseJson(os.str(), doc, error)) << error;

        struct Span
        {
            std::string name;
            double start;
            double end;
        };
        std::vector<Span> spans;
        std::multiset<std::string> names;
        for (const auto &e : doc.find("traceEvents")->items) {
            if (e.find("ph")->asString() != "X")
                continue;
            const double ts = e.find("ts")->asDouble();
            spans.push_back({e.find("name")->asString(), ts,
                             ts + e.find("dur")->asDouble()});
            names.insert(spans.back().name);
        }
        EXPECT_EQ(names.count("gen_a"), 1u) << c.arch.name;
        EXPECT_EQ(names.count("gen_b"), 1u) << c.arch.name;
        EXPECT_EQ(names.count(c.stage), 1u) << c.arch.name;
        for (const Span &gen : spans) {
            if (gen.name != "gen_a" && gen.name != "gen_b")
                continue;
            for (const Span &other : spans)
                EXPECT_FALSE(&other != &gen && other.start <= gen.start &&
                             gen.end <= other.end)
                    << c.arch.name << ": " << gen.name << " inside "
                    << other.name;
        }
    }
}

TEST(Telemetry, ThreadsMergeIntoOneTraceButKeepOwnTids)
{
    TelemetryReset guard;
    Telemetry::setEnabled(true);
    constexpr int threads = 4;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([] {
            ScopedSpan span("reduce");
        });
    for (auto &w : workers)
        w.join();
    {
        ScopedSpan span("reduce");
    }
    EXPECT_EQ(Telemetry::eventCount(),
              static_cast<std::uint64_t>(threads + 1));

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

TEST(Telemetry, ClearDropsEventsButKeepsRecording)
{
    TelemetryReset guard;
    Telemetry::setEnabled(true);
    {
        ScopedSpan span("reduce");
    }
    EXPECT_EQ(Telemetry::eventCount(), 1u);
    Telemetry::clear();
    EXPECT_EQ(Telemetry::eventCount(), 0u);
    // The switch survives clear().
    EXPECT_TRUE(Telemetry::enabled());
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

} // namespace
} // namespace griffin
