/**
 * @file
 * Tests for the runtime/ subsystem: work-stealing pool semantics and
 * job order, parallel-vs-serial determinism of the experiment runner,
 * one generation per operand side a planned workset's consumers read,
 * and result-sink serialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "arch/presets.hh"
#include "common/logging.hh"
#include "runtime/result_sink.hh"
#include "runtime/runner.hh"
#include "runtime/telemetry.hh"
#include "runtime/thread_pool.hh"
#include "sim/sampling.hh"

namespace griffin {
namespace {

// ---- thread pool ----------------------------------------------------

TEST(ThreadPool, RunsEveryJobExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4);
    std::atomic<int> count{0};
    std::vector<std::atomic<int>> per_job(100);
    for (auto &p : per_job)
        p = 0;
    for (int i = 0; i < 100; ++i)
        pool.submit([&count, &per_job, i] {
            ++per_job[static_cast<std::size_t>(i)];
            ++count;
        });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
    for (const auto &p : per_job)
        EXPECT_EQ(p.load(), 1);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), (batch + 1) * 10);
        EXPECT_EQ(pool.pendingJobs(), 0u);
    }
}

TEST(ThreadPool, ShutdownDrainsPendingJobs)
{
    // Destroy the pool while most jobs are still queued: shutdown must
    // finish every submitted job, not drop the backlog.
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&count] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                ++count;
            });
        // No wait(): the destructor races the backlog.
    }
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, StealsAcrossWorkers)
{
    // One worker's deque gets every long job (round-robin with exactly
    // one job per spin); with stealing, elapsed time is bounded well
    // below serial execution.  Smoke-level: just require all to finish
    // from a heavily imbalanced submit pattern.
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 16; ++i)
        pool.submit([&count] {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            ++count;
        });
    pool.wait();
    EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, EachWorkerRunsItsShareInSubmissionOrder)
{
    // Park every worker inside a job, place a batch, then let them go:
    // worker w's first job of the batch must be job w, the front of its
    // round-robin share.  A LIFO pop would start each worker on its last
    // job, and which sweep worksets are resident together would then
    // depend on thread timing.  Jobs 0..3 wait for each other, so no
    // worker drains a slower one's deque before it wakes.
    constexpr int kThreads = 4;
    ThreadPool pool(kThreads);
    std::mutex mu;
    std::condition_variable cv;
    int parked = 0;
    bool release = false;
    std::vector<std::function<void()>> park;
    for (int i = 0; i < kThreads; ++i)
        park.push_back([&] {
            std::unique_lock<std::mutex> lock(mu);
            ++parked;
            cv.notify_all();
            cv.wait(lock, [&] { return release; });
        });
    pool.submitAll(std::move(park));
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return parked == kThreads; });
    }

    std::map<std::thread::id, int> first_job;
    int fronts_started = 0;
    std::vector<std::function<void()>> batch;
    for (int i = 0; i < 8 * kThreads; ++i)
        batch.push_back([&, i] {
            std::unique_lock<std::mutex> lock(mu);
            first_job.emplace(std::this_thread::get_id(), i);
            if (i < kThreads) {
                ++fronts_started;
                cv.notify_all();
                cv.wait(lock, [&] { return fronts_started == kThreads; });
            }
        });
    pool.submitAll(std::move(batch));
    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    pool.wait();

    std::set<int> firsts;
    for (const auto &entry : first_job)
        firsts.insert(entry.second);
    EXPECT_EQ(firsts, (std::set<int>{0, 1, 2, 3}));
}

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1);
}

TEST(ThreadPoolDeathTest, ZeroThreadsIsFatal)
{
    EXPECT_EXIT(ThreadPool pool(0), testing::ExitedWithCode(exitUsageError),
                "at least 1 thread");
}

// ---- runner ---------------------------------------------------------

SweepSpec
smallSweep()
{
    SweepSpec spec;
    spec.archs = {sparseBStar(), griffinArch()};
    spec.networks = {alexNet(), bertBase()};
    spec.categories = {DnnCategory::B, DnnCategory::AB};
    RunOptions fast;
    fast.sim.sampleFraction = 0.02;
    fast.sim.minSampledTiles = 2;
    fast.rowCap = 32;
    spec.optionVariants = {fast};
    return spec;
}

TEST(Runner, ExpansionMatchesSerialLoopOrder)
{
    auto spec = smallSweep();
    auto jobs = expandSweep(spec);
    ASSERT_EQ(jobs.size(), spec.jobCount());
    ASSERT_EQ(jobs.size(), 8u);
    EXPECT_EQ(jobs[0].archIndex, 0u);
    EXPECT_EQ(jobs[0].networkIndex, 0u);
    EXPECT_EQ(jobs[0].categoryIndex, 0u);
    EXPECT_EQ(jobs[1].categoryIndex, 1u);
    EXPECT_EQ(jobs[2].networkIndex, 1u);
    EXPECT_EQ(jobs[4].archIndex, 1u);
}

TEST(Runner, ExpansionOrderIsOptionsArchNetworkCategory)
{
    // The documented nesting order — (options, arch, network,
    // category), options outermost — is load-bearing: GridSpec maps
    // its RunOptions axes onto optionVariants assuming it, and the
    // bit-identity tests compare against serial loops written in it.
    auto spec = smallSweep();
    spec.optionVariants.push_back(spec.optionVariants[0]);
    spec.optionVariants[1].weightLaneBias = 0.9;
    spec.optionCoords = {{}, {{"weight_lane_bias", "0.9"}}};
    const auto jobs = expandSweep(spec);
    ASSERT_EQ(jobs.size(), 16u);
    std::size_t i = 0;
    for (std::size_t o = 0; o < 2; ++o) {
        for (std::size_t a = 0; a < 2; ++a) {
            for (std::size_t n = 0; n < 2; ++n) {
                for (std::size_t c = 0; c < 2; ++c, ++i) {
                    EXPECT_EQ(jobs[i].optionsIndex, o) << "job " << i;
                    EXPECT_EQ(jobs[i].archIndex, a) << "job " << i;
                    EXPECT_EQ(jobs[i].networkIndex, n) << "job " << i;
                    EXPECT_EQ(jobs[i].categoryIndex, c) << "job " << i;
                    EXPECT_EQ(jobs[i].coords, spec.optionCoords[o])
                        << "job " << i;
                }
            }
        }
    }
}

TEST(RunnerDeathTest, MismatchedOptionCoordsAreFatal)
{
    auto spec = smallSweep();
    spec.optionCoords = {{}, {}};
    EXPECT_EXIT(expandSweep(spec), testing::ExitedWithCode(exitUsageError),
                "axis-coordinate records");
}

TEST(Runner, ParallelIsBitIdenticalToSerial)
{
    auto spec = smallSweep();
    const auto serial = runSweep(spec, 1);
    const auto parallel = runSweep(spec, 4);
    ASSERT_EQ(serial.results().size(), parallel.results().size());

    // Numeric identity per job...
    for (std::size_t i = 0; i < serial.results().size(); ++i) {
        const auto &s = serial.results()[i];
        const auto &p = parallel.results()[i];
        EXPECT_EQ(s.network, p.network);
        EXPECT_EQ(s.arch, p.arch);
        EXPECT_EQ(s.totalCycles, p.totalCycles);
        EXPECT_EQ(s.denseCycles, p.denseCycles);
        EXPECT_EQ(s.speedup, p.speedup);
        EXPECT_EQ(s.topsPerWatt, p.topsPerWatt);
        ASSERT_EQ(s.layers.size(), p.layers.size());
        for (std::size_t l = 0; l < s.layers.size(); ++l)
            EXPECT_EQ(s.layers[l].totalCycles,
                      p.layers[l].totalCycles);
    }

    // ...and byte identity of the serialized documents.
    std::ostringstream ser, par;
    writeJson(ser, serial.results());
    writeJson(par, parallel.results());
    EXPECT_EQ(ser.str(), par.str());
}

/** Sides generated: gen_a and gen_b events, or --stats gauges. */
struct Generations
{
    std::uint64_t a = 0;
    std::uint64_t b = 0;

    bool
    operator==(const Generations &o) const
    {
        return a == o.a && b == o.b;
    }
};

std::ostream &
operator<<(std::ostream &os, const Generations &g)
{
    return os << "{A " << g.a << ", B " << g.b << "}";
}

/**
 * gen_a and gen_b events in the Chrome trace of `body`, run with
 * tracing on; tracing is off and the buffers empty afterwards.
 */
Generations
countGenerations(const std::function<void()> &body)
{
    Telemetry::clear();
    Telemetry::setEnabled(true);
    body();
    Telemetry::setEnabled(false);
    std::ostringstream trace;
    Telemetry::writeChromeTrace(trace);
    Telemetry::clear();
    const std::string doc = trace.str();
    const auto events = [&doc](const std::string &name) {
        const std::string event = "\"name\": \"" + name + "\"";
        std::uint64_t count = 0;
        for (auto at = doc.find(event); at != std::string::npos;
             at = doc.find(event, at + event.size()))
            ++count;
        return count;
    };
    return {events("gen_a"), events("gen_b")};
}

std::size_t
layerTotal(const SweepSpec &spec)
{
    std::size_t total = 0;
    for (const auto &net : spec.networks)
        total += net.layerCount();
    return total;
}

/**
 * gen_b events of smallSweep() (and of its DRAM-bound twin): both archs
 * share the tile height, so they share every workset, and each
 * (category, layer) group draws B's column tiles, never B whole.
 * Sparse.B* reads its sampled column tiles and draws them first: one
 * event per group.  On DNN.B Griffin morphs to Sparse.B and samples
 * the same columns, so it draws none; on DNN.AB its dual engine's tile
 * pairs read columns of their own, and on one of the 17 layers one of
 * them is not among Sparse.B*'s: one more event.
 */
constexpr std::uint64_t kSmallSweepBTileDraws = 2 * 17 + 1;

TEST(Runner, SweepIsBitIdenticalToSerialAcceleratorRun)
{
    // The acceptance bar for the one execution path (one pool task per
    // (category, workset) group): sweeps on 1, 2, and 8 threads all
    // reproduce the serial Accelerator::run loop byte for byte, and
    // each operand of a layer's workset is generated at most once per
    // category.  Sparse.B* reads B's column tiles only; Griffin morphs
    // to Sparse.B on DNN.B and runs dual on DNN.AB, so A is generated
    // for DNN.AB only (kSmallSweepBTileDraws counts B's draws).
    auto spec = smallSweep();

    // Ground truth: the serial quadruple loop through run().
    const auto serialDoc = [](const SweepSpec &sweep_spec) {
        std::vector<NetworkResult> serial;
        for (const auto &opt : sweep_spec.optionVariants)
            for (const auto &arch : sweep_spec.archs) {
                Accelerator acc(arch);
                for (const auto &net : sweep_spec.networks)
                    for (const auto cat : sweep_spec.categories)
                        serial.push_back(acc.run(net, cat, opt));
            }
        std::ostringstream doc;
        writeJson(doc, serial);
        return doc.str();
    };

    ASSERT_EQ(layerTotal(spec), 17u);
    const Generations generations{layerTotal(spec), kSmallSweepBTileDraws};
    const std::string expected = serialDoc(spec);
    for (const int threads : {1, 2, 8}) {
        SweepResult sweep;
        EXPECT_EQ(countGenerations([&] { sweep = runSweep(spec, threads); }),
                  generations)
            << threads << " threads";
        std::ostringstream doc;
        writeJson(doc, sweep.results());
        EXPECT_EQ(doc.str(), expected)
            << "sweep diverged on " << threads << " threads";
    }

    // A DRAM-bound variant doubles the jobs but leaves every operand
    // alone, so it joins the same groups.
    spec.optionVariants.push_back(spec.optionVariants[0]);
    spec.optionVariants[1].enforceDramBound = true;
    SweepResult doubled;
    EXPECT_EQ(countGenerations([&] { doubled = runSweep(spec, 4); }),
              generations);
    ASSERT_EQ(doubled.jobs().size(), 16u);
    std::ostringstream doc;
    writeJson(doc, doubled.results());
    EXPECT_EQ(doc.str(), serialDoc(spec));
}

TEST(Runner, RunSweepsSharesWorksetsAcrossSpecs)
{
    // Two specs over shared networks: one plan generates each shared
    // (category, workset) once, and each spec's results are
    // byte-identical to its own runSweep call.
    const SweepSpec first = smallSweep();
    SweepSpec second = smallSweep();
    second.archs = {griffinArch()};
    second.networks = {alexNet()};
    second.categories = {DnnCategory::AB};

    // first draws B's column tiles on both categories and generates A
    // on DNN.AB (see SweepIsBitIdenticalToSerialAcceleratorRun);
    // second's dual Griffin is one of first's consumers, so it reads
    // what first already generated.  Alone, it generates A and draws
    // its tiles once per AlexNet layer.
    std::vector<SweepResult> planned;
    EXPECT_EQ(countGenerations([&] {
                  planned = runSweeps({first, second}, 4);
              }),
              (Generations{layerTotal(first), kSmallSweepBTileDraws}));
    ASSERT_EQ(planned.size(), 2u);

    Generations separate;
    for (std::size_t s = 0; s < 2; ++s) {
        const SweepSpec &spec = s == 0 ? first : second;
        SweepResult alone;
        const Generations g =
            countGenerations([&] { alone = runSweep(spec, 2); });
        separate.a += g.a;
        separate.b += g.b;
        std::ostringstream a, b;
        writeJsonLines(a, alone);
        writeJsonLines(b, planned[s]);
        EXPECT_EQ(a.str(), b.str()) << "spec " << s;
    }
    EXPECT_EQ(separate,
              (Generations{layerTotal(first) + layerTotal(second),
                           kSmallSweepBTileDraws + layerTotal(second)}));
}

/**
 * The column tiles of B a vector-core Sparse.B consumer of `p` samples
 * (sim/gemm_sim.cc's plan), as (first column, width) ranges.
 */
std::vector<std::pair<std::int64_t, std::int64_t>>
sparseBColumns(const ArchConfig &arch, const WorksetParams &p,
               const RunOptions &opt)
{
    const std::int64_t n0 = arch.tile.n0;
    std::vector<std::pair<std::int64_t, std::int64_t>> out;
    for (const TileCoord &t :
         sampleTiles((p.n + n0 - 1) / n0, 1, opt.sim.sampleFraction,
                     opt.sim.minSampledTiles, LayerWorkset(p).simSeed))
        out.emplace_back(t.row * n0, std::min(n0, p.n - t.row * n0));
    return out;
}

TEST(Runner, ConsumersGenerateOnlyTheSidesTheyRead)
{
    // A Sparse.A engine reads A, a Sparse.B engine B's sampled column
    // tiles, a dense one neither, and SparTen A whole and every column
    // of B, streamed in slabs it does not keep.  The trace's gen_a /
    // gen_b events and the SweepStats record agree: gen.a_sides counts
    // A, gen.b_tiles the tiles kept, and gen.elements every element
    // drawn, streamed slabs included.
    const struct
    {
        ArchConfig arch;
        DnnCategory cat;
        bool a;
        bool streamsB;
        bool tiles;
    } cases[] = {
        {sparseAStar(), DnnCategory::A, true, false, false},
        {sparseBStar(), DnnCategory::B, false, false, true},
        {denseBaseline(), DnnCategory::Dense, false, false, false},
        {sparTenAB(), DnnCategory::AB, true, true, false},
    };
    for (const auto &c : cases) {
        SweepSpec spec = smallSweep();
        spec.archs = {c.arch};
        spec.categories = {c.cat};
        Accelerator acc(c.arch);
        const std::uint64_t layers = layerTotal(spec);
        std::int64_t elements = 0, tiles = 0;
        for (const auto &net : spec.networks)
            for (std::size_t l = 0; l < net.layerCount(); ++l) {
                const WorksetParams p = acc.layerWorksetParams(
                    net, l, c.cat, spec.optionVariants[0]);
                elements += (c.a ? p.m * p.k : 0) +
                            (c.streamsB ? p.k * p.n : 0);
                if (!c.tiles)
                    continue;
                for (const auto &[first, width] :
                     sparseBColumns(c.arch, p, spec.optionVariants[0])) {
                    elements += p.k * width;
                    ++tiles;
                }
            }
        // One gen_b event per layer: SparTen's slabs, or one GEMM's
        // tiles.
        const Generations want{c.a ? layers : 0,
                               c.streamsB || c.tiles ? layers : 0};
        SweepStats stats;
        EXPECT_EQ(countGenerations([&] { runSweeps({spec}, 2, &stats); }),
                  want)
            << c.arch.name;
        EXPECT_EQ(stats.at("gen.a_sides"),
                  static_cast<double>(c.a ? layers : 0))
            << c.arch.name;
        EXPECT_EQ(stats.at("gen.b_tiles"), static_cast<double>(tiles))
            << c.arch.name;
        EXPECT_EQ(stats.at("gen.elements"), static_cast<double>(elements))
            << c.arch.name;
    }
}

TEST(Runner, RunLayerIsOrderIndependent)
{
    // The per-layer entry point must not depend on which layers ran
    // before it: layer L simulated cold equals layer L simulated after
    // every other layer.
    auto spec = smallSweep();
    const auto &net = spec.networks[0];
    const auto &opt = spec.optionVariants[0];
    Accelerator acc(spec.archs[0]);

    const auto last_first = acc.runLayer(
        net, net.layerCount() - 1, DnnCategory::B, opt);
    std::vector<LayerResult> in_order;
    for (std::size_t l = 0; l < net.layerCount(); ++l)
        in_order.push_back(acc.runLayer(net, l, DnnCategory::B, opt));
    EXPECT_EQ(last_first.totalCycles, in_order.back().totalCycles);
    EXPECT_EQ(last_first.computeCycles, in_order.back().computeCycles);

    const auto reduced =
        acc.reduceLayers(net, DnnCategory::B, std::move(in_order),
                         RunOptions{});
    const auto direct = acc.run(net, DnnCategory::B, opt);
    EXPECT_EQ(reduced.totalCycles, direct.totalCycles);
    EXPECT_EQ(reduced.speedup, direct.speedup);
    EXPECT_EQ(reduced.topsPerWatt, direct.topsPerWatt);
}

TEST(Runner, GroupingDoesNotChangeResults)
{
    auto spec = smallSweep();
    const auto sweep = runSweep(spec, 2);
    // Re-run one job directly, generating its own worksets.
    const auto &job = sweep.jobs()[3];
    Accelerator acc(spec.archs[job.archIndex]);
    const auto direct = acc.run(spec.networks[job.networkIndex],
                                spec.categories[job.categoryIndex],
                                job.options);
    EXPECT_EQ(direct.totalCycles, sweep.results()[3].totalCycles);
    EXPECT_EQ(direct.speedup, sweep.results()[3].speedup);
}

TEST(Runner, TracingLeavesResultRowsAlone)
{
    // Telemetry is pure observation: a traced sweep, every task under
    // its layer span, writes the plain sweep's document byte for byte.
    const auto spec = smallSweep();
    std::ostringstream plain, traced;
    writeJsonLines(plain, runSweep(spec, 2));
    Telemetry::setEnabled(true);
    writeJsonLines(traced, runSweep(spec, 2));
    Telemetry::setEnabled(false);
    Telemetry::clear();
    EXPECT_EQ(traced.str(), plain.str());
}

TEST(RunnerDeathTest, OutOfRangeOptionsAreFatal)
{
    // Each value would otherwise trip a generator or tile-sampler assert
    // (SIGABRT) mid-sweep, or land in the rows as a bare nan/inf, which
    // is not JSON; validate() makes them usage errors up front.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const auto expand = [](double lane_bias, double run_length,
                           double sample) {
        auto spec = smallSweep();
        spec.optionVariants[0].weightLaneBias = lane_bias;
        spec.optionVariants[0].actRunLength = run_length;
        spec.optionVariants[0].sim.sampleFraction = sample;
        return expandSweep(spec).size();
    };
    const struct
    {
        double laneBias, runLength, sample;
        const char *message;
    } cases[] = {
        {2.0, 2.0, 0.5, "weight_lane_bias 2 is outside"},
        {-0.5, 2.0, 0.5, "weight_lane_bias -0.5 is outside"},
        {nan, 2.0, 0.5, "weight_lane_bias nan is not finite"},
        {inf, 2.0, 0.5, "weight_lane_bias inf is not finite"},
        {0.5, inf, 0.5, "act_run_length inf is not finite"},
        {0.5, nan, 0.5, "act_run_length nan is not finite"},
        {0.5, 2.0, nan, "sample_fraction nan is not finite"},
        {0.5, 2.0, 0.0, "sample_fraction 0 is outside"},
        {0.5, 2.0, 1.5, "sample_fraction 1.5 is outside"},
    };
    for (const auto &c : cases)
        EXPECT_EXIT(expand(c.laneBias, c.runLength, c.sample),
                    testing::ExitedWithCode(exitUsageError), c.message)
            << c.message;
    // The closed ends of both ranges stay valid.
    EXPECT_EQ(expand(0.0, 1.0, 1.0), 8u);
    EXPECT_EQ(expand(1.0, 2.0, 0.02), 8u);

    // Integer options: a row cap must be positive (a zero cap used to
    // die once per worker thread, mid-sweep), and a negative SRAM
    // budget would silently turn spill accounting off.
    const auto expandInts = [](std::int64_t row_cap,
                               std::int64_t sram_budget_bytes) {
        auto spec = smallSweep();
        spec.optionVariants[0].rowCap = row_cap;
        spec.optionVariants[0].sramBudgetBytes = sram_budget_bytes;
        return expandSweep(spec).size();
    };
    EXPECT_EXIT(expandInts(0, 0), testing::ExitedWithCode(exitUsageError),
                "row_cap 0 is not positive");
    EXPECT_EXIT(expandInts(-5, 0), testing::ExitedWithCode(exitUsageError),
                "row_cap -5 is not positive");
    EXPECT_EXIT(expandInts(32, -65536),
                testing::ExitedWithCode(exitUsageError),
                "SRAM budget of -65536 bytes is negative");
    EXPECT_EQ(expandInts(1, 0), 8u);
}

TEST(RunnerDeathTest, EmptySpecIsFatal)
{
    SweepSpec spec;
    EXPECT_EXIT(expandSweep(spec), testing::ExitedWithCode(exitUsageError),
                "no architectures");
}

// ---- result sink ----------------------------------------------------

TEST(ResultSink, JsonEscaping)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
    EXPECT_EQ(jsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(ResultSink, JsonNumberRoundTripsAndIsShort)
{
    EXPECT_EQ(jsonNumber(1.0), "1");
    EXPECT_EQ(jsonNumber(2.5), "2.5");
    EXPECT_EQ(jsonNumber(0.1), "0.1");
    const double awkward = 1.0 / 3.0;
    double back = 0.0;
    std::sscanf(jsonNumber(awkward).c_str(), "%lf", &back);
    EXPECT_EQ(back, awkward);
}

NetworkResult
tinyResult()
{
    NetworkResult r;
    r.network = "net";
    r.arch = "arch";
    r.category = DnnCategory::B;
    r.denseCycles = 100;
    r.totalCycles = 50;
    r.speedup = 2.0;
    LayerResult l;
    l.name = "l1";
    l.denseCycles = 100;
    l.computeCycles = 50;
    l.totalCycles = 50;
    l.macs = 1000;
    l.speedup = 2.0;
    r.layers.push_back(l);
    return r;
}

TEST(ResultSink, JsonDocumentShape)
{
    std::ostringstream os;
    const std::vector<NetworkResult> results{tinyResult()};
    writeJson(os, results);
    const auto doc = os.str();
    EXPECT_NE(doc.find("\"network\": \"net\""), std::string::npos);
    EXPECT_NE(doc.find("\"category\": \"DNN.B\""), std::string::npos);
    EXPECT_NE(doc.find("\"layers\": ["), std::string::npos);
    EXPECT_NE(doc.find("\"speedup\": 2"), std::string::npos);
    EXPECT_EQ(doc.front(), '[');
    EXPECT_EQ(doc[doc.size() - 2], ']');
}

TEST(ResultSink, CsvHasLayerAndTotalRows)
{
    std::ostringstream os;
    writeCsv(os, {tinyResult()});
    const auto doc = os.str();
    EXPECT_NE(doc.find("net,arch,DNN.B,l1,100,50,0,50,1000,2\n"),
              std::string::npos);
    EXPECT_NE(doc.find("net,arch,DNN.B,total,100,,,50,,2\n"),
              std::string::npos);
}

SweepResult
tinyAnnotatedSweep()
{
    // A hand-assembled two-variant sweep (no simulation): enough to
    // exercise the annotated row serialization.
    SweepSpec spec;
    spec.archs = {sparseBStar()};
    spec.networks = {alexNet()};
    spec.categories = {DnnCategory::B};
    RunOptions lo, hi;
    lo.weightLaneBias = 0.25;
    hi.weightLaneBias = 0.75;
    spec.optionVariants = {lo, hi};
    spec.optionCoords = {{{"weight_lane_bias", "0.25"}},
                         {{"weight_lane_bias", "0.75"}}};
    auto jobs = expandSweep(spec);
    return SweepResult(std::move(jobs), {tinyResult(), tinyResult()});
}

TEST(ResultSink, SweepJsonRowsCarryOptionsAndCoords)
{
    std::ostringstream os;
    writeJson(os, tinyAnnotatedSweep());
    const auto doc = os.str();
    EXPECT_NE(doc.find("\"options\": {\"seed\": 1, \"row_cap\": 256, "
                       "\"weight_lane_bias\": 0.25, "
                       "\"act_run_length\": 2, "
                       "\"sample_fraction\": 1, "
                       "\"enforce_dram_bound\": false}"),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"coords\": {\"weight_lane_bias\": \"0.25\"}"),
              std::string::npos);
    EXPECT_NE(doc.find("\"coords\": {\"weight_lane_bias\": \"0.75\"}"),
              std::string::npos);
}

TEST(ResultSink, SweepCsvRowsCarryOptionsColumns)
{
    std::ostringstream os;
    writeCsv(os, tinyAnnotatedSweep());
    const auto doc = os.str();
    EXPECT_NE(doc.find("network,arch,category,seed,row_cap,"
                       "weight_lane_bias,act_run_length,"
                       "sample_fraction,enforce_dram_bound,layer,"),
              std::string::npos);
    EXPECT_NE(doc.find("net,arch,DNN.B,1,256,0.25,2,1,false,total,"),
              std::string::npos);
    EXPECT_NE(doc.find("net,arch,DNN.B,1,256,0.75,2,1,false,total,"),
              std::string::npos);
}

TEST(ResultSink, CsvQuotesCommaBearingFields)
{
    // Routing-spec arch names embed commas; RFC-4180 quoting must keep
    // them one column or every downstream column shifts.
    auto result = tinyResult();
    result.arch = "B(4,0,1,on)";
    result.layers[0].name = "conv \"a\",b";
    std::ostringstream os;
    writeCsv(os, {result});
    const auto doc = os.str();
    EXPECT_NE(doc.find("net,\"B(4,0,1,on)\",DNN.B,"
                       "\"conv \"\"a\"\",b\",100,50,0,50,1000,2\n"),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("net,\"B(4,0,1,on)\",DNN.B,total,"),
              std::string::npos)
        << doc;

    // The annotated writer quotes the same way.
    ResultRow row;
    row.result = result;
    row.annotated = true;
    std::ostringstream os2;
    writeCsv(os2, std::vector<ResultRow>{row});
    EXPECT_NE(os2.str().find("net,\"B(4,0,1,on)\",DNN.B,1,256,"),
              std::string::npos)
        << os2.str();
}

TEST(ResultSink, JsonLinesIsOneCompactRowPerLineWithLabel)
{
    auto rows = sweepRows(tinyAnnotatedSweep(), "fig5");
    std::ostringstream os;
    writeJsonLines(os, rows);
    const auto doc = os.str();
    // One line per row, no enclosing array.
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '\n'), 2);
    EXPECT_EQ(doc.front(), '{');
    const auto first = doc.substr(0, doc.find('\n'));
    EXPECT_NE(first.find("\"experiment\": \"fig5\","), std::string::npos);
    EXPECT_NE(first.find("\"network\": \"net\","), std::string::npos);
    EXPECT_NE(first.find("\"coords\": {\"weight_lane_bias\": "
                         "\"0.25\"},"),
              std::string::npos);
    EXPECT_NE(first.find("\"layers\": [{"), std::string::npos);

    // Splitting a row list anywhere and concatenating the parts
    // reproduces the document — the property the per-experiment
    // baseline files rely on.
    std::ostringstream part1, part2;
    writeJsonLines(part1, {rows[0]});
    writeJsonLines(part2, {rows[1]});
    EXPECT_EQ(part1.str() + part2.str(), doc);
}

TEST(ResultSink, ExperimentColumnOnlyWhenLabeled)
{
    auto labeled = sweepRows(tinyAnnotatedSweep(), "fig5");
    std::ostringstream os;
    writeCsv(os, labeled);
    EXPECT_EQ(os.str().rfind("experiment,network,arch,", 0), 0u);
    EXPECT_NE(os.str().find("fig5,net,arch,DNN.B,"), std::string::npos);

    auto unlabeled = sweepRows(tinyAnnotatedSweep());
    std::ostringstream os2;
    writeCsv(os2, unlabeled);
    EXPECT_EQ(os2.str().rfind("network,arch,", 0), 0u);
    // No row priced a schedule, so the header ends at speedup.
    EXPECT_NE(os2.str().find(",macs,speedup\n"), std::string::npos);
}

TEST(ResultSink, PlainRowsKeepTheLegacyShape)
{
    // Unannotated documents must not grow options/coords fields: the
    // NetworkResult overloads are the stable legacy format.
    std::ostringstream os;
    writeJson(os, std::vector<NetworkResult>{tinyResult()});
    EXPECT_EQ(os.str().find("\"options\""), std::string::npos);
    EXPECT_EQ(os.str().find("\"coords\""), std::string::npos);
}

TEST(ResultSink, TableJsonLineIsOneObjectPerLine)
{
    Table t("Title", {"a", "b"});
    t.addRow({"x", "1"});
    std::ostringstream os;
    writeTableJsonLine(os, t);
    EXPECT_EQ(os.str(), "{\"table\": \"Title\", \"columns\": [\"a\", "
                        "\"b\"], \"rows\": [[\"x\", \"1\"]]}\n");
}

} // namespace
} // namespace griffin
