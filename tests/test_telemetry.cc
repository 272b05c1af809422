/**
 * @file
 * Tests for the telemetry layer: span recording on and off and across
 * threads, Chrome trace export, the stage spans of one layer, the
 * runner's layer spans and their args, and the stats JSON line.
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

TEST(Telemetry, DisabledRecordsNothing)
{
    TelemetryReset guard;
    {
        ScopedSpan span("tile_sim");
        ScopedSpan layer(LayerTag{"AlexNet", 0, "conv1"});
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

/** A trace's "X" events: name, thread, [start, end] and args. */
struct TraceEvent
{
    std::string name;
    std::int64_t tid;
    double start;
    double end;
    const JsonValue *args;
};

std::vector<TraceEvent>
completeEvents(const JsonValue &doc)
{
    std::vector<TraceEvent> out;
    for (const auto &e : doc.find("traceEvents")->items) {
        if (e.find("ph")->asString() != "X")
            continue;
        const double ts = e.find("ts")->asDouble();
        out.push_back({e.find("name")->asString(), e.find("tid")->asInt(),
                       ts, ts + e.find("dur")->asDouble(), e.find("args")});
    }
    return out;
}

TEST(Telemetry, LayerSpanCarriesACopyOfItsTag)
{
    TelemetryReset guard;
    Telemetry::setEnabled(true);
    {
        // The strings die before export: the trace keeps copies.
        const std::string network = "Net \"q\"";
        const std::string layer = "block/conv\\1";
        ScopedSpan span(LayerTag{network, 7, layer});
        ScopedSpan inner("tile_sim");
    }
    std::ostringstream os;
    Telemetry::writeChromeTrace(os);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(os.str(), doc, error)) << error << os.str();
    const auto events = completeEvents(doc);
    ASSERT_EQ(events.size(), 2u);
    const TraceEvent &inner = events[0];
    const TraceEvent &layer = events[1];
    EXPECT_EQ(inner.name, "tile_sim");
    EXPECT_EQ(inner.args, nullptr);
    EXPECT_EQ(layer.name, "layer");
    ASSERT_NE(layer.args, nullptr);
    ASSERT_EQ(layer.args->members.size(), 3u);
    EXPECT_EQ(layer.args->find("network")->asString(), "Net \"q\"");
    EXPECT_EQ(layer.args->find("index")->asInt(), 7);
    EXPECT_EQ(layer.args->find("layer")->asString(), "block/conv\\1");
}

TEST(Telemetry, SweepRunsEveryStageInsideOneLayerSpan)
{
    // One layer span per pool task, tagged with the task's network
    // layer; every stage span opens inside exactly one of them on the
    // same thread, except reduce (and schedule inside it), which runs
    // after the pool.
    TelemetryReset guard;
    SweepSpec spec;
    spec.archs = {griffinArch(), sparTenAB(), sparseAStar()};
    spec.networks = {alexNet()};
    spec.categories = {DnnCategory::A, DnnCategory::AB};
    RunOptions opt;
    opt.rowCap = 8;
    opt.sim.sampleFraction = 0.25;
    spec.optionVariants = {opt};
    SweepStats stats;
    Telemetry::setEnabled(true);
    runSweeps({spec}, 2, &stats);
    Telemetry::setEnabled(false);
    std::ostringstream os;
    Telemetry::writeChromeTrace(os);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(os.str(), doc, error)) << error;
    const auto events = completeEvents(doc);

    std::vector<const TraceEvent *> layers;
    std::multiset<std::string> names;
    for (const auto &e : events) {
        names.insert(e.name);
        if (e.name != "layer")
            continue;
        layers.push_back(&e);
        ASSERT_NE(e.args, nullptr);
        EXPECT_EQ(e.args->find("network")->asString(), "AlexNet");
        const auto index =
            static_cast<std::size_t>(e.args->find("index")->asInt());
        ASSERT_LT(index, alexNet().layerCount());
        EXPECT_EQ(e.args->find("layer")->asString(),
                  alexNet().layer(index).name);
    }
    EXPECT_EQ(static_cast<double>(layers.size()),
              stats.at("pool.executed_jobs"));
    for (const char *stage : {"gen_a", "gen_b", "tile_sim", "sparten",
                              "a_schedule", "dual_schedule", "reduce"})
        EXPECT_GT(names.count(stage), 0u) << stage;
    for (const auto &e : events) {
        if (e.name == "layer" || e.name == "reduce" ||
            e.name == "schedule")
            continue;
        int inside = 0;
        for (const TraceEvent *l : layers)
            inside += l->tid == e.tid && l->start <= e.start &&
                      e.end <= l->end;
        EXPECT_EQ(inside, 1) << e.name << " at " << e.start;
    }
}

TEST(ResultSinkMetrics, StatsJsonLineIsSortedAndParses)
{
    const SweepStats stats = {{"sweep.wall_ms", 1.5},
                              {"sweep.jobs", 3.0},
                              {"pool.utilization", 0.1}};
    std::ostringstream os;
    writeMetricsJsonLine(os, stats);
    // Name order; integral values print as integers, the rest in their
    // shortest round-trip form.
    EXPECT_EQ(os.str(), "{\"metrics\": {\"pool.utilization\": 0.1, "
                        "\"sweep.jobs\": 3, \"sweep.wall_ms\": 1.5}}\n");
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(os.str(), doc, error)) << error;
    const JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_EQ(metrics->members.size(), 3u);
    EXPECT_EQ(metrics->members[0].first, "pool.utilization");
    EXPECT_EQ(metrics->members[1].first, "sweep.jobs");
    EXPECT_EQ(metrics->members[2].first, "sweep.wall_ms");
    EXPECT_EQ(metrics->find("sweep.jobs")->asInt(), 3);
    EXPECT_DOUBLE_EQ(metrics->find("sweep.wall_ms")->asDouble(), 1.5);
}

} // namespace
} // namespace griffin
