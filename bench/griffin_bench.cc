/**
 * @file
 * The one bench driver: every paper figure, table, and ablation is a
 * registered Experiment (bench/experiments/), listed, described, and
 * executed here.
 *
 *   griffin_bench list
 *   griffin_bench describe fig5
 *   griffin_bench run fig5 fig6 --threads 8
 *   griffin_bench run --all --sample 0.01 --rowcap 4 --out results.jsonl
 *   griffin_bench run fig5 --grid-shard 0/3 --out shard0.jsonl
 *
 * Every experiment accepts the same flag set: fidelity (--sample,
 * --rowcap, --seed, --lanebias; sample/rowcap default to the
 * experiment's tuned fidelity), parallelism (--threads), grid
 * overrides (--grid, applied over the experiment's own axes: any axis
 * the experiment does not lock can be swept, e.g.
 * `run fig5 --grid "arch=Griffin,network=resnet50,seed=1..2"`), and
 * output (--csv tables, --json table JSON Lines, --out result-row
 * document: .json/.csv/.jsonl by suffix).  One `run` is one plan: the
 * experiments it names share one pool, and a layer workset several of
 * them use is generated once.
 *
 * Multi-machine runs: --grid-shard i/n slices every sweep's job list
 * into n contiguous blocks and runs block i, so n processes cover a
 * grid disjointly.  Sharded runs emit result rows only (a shard's
 * aggregate tables would be wrong); concatenating the shards' --out
 * .jsonl files in shard order is byte-identical to the unsharded file,
 * and
 *
 *   griffin_bench merge shard0.jsonl shard1.jsonl shard2.jsonl
 *
 * validates that the shard documents cover each experiment's grid
 * exactly (disjoint, complete, in order) and renders the aggregate
 * tables post hoc that the shards could not (--out rewrites the
 * merged row document, --csv/--json apply as in run).
 */

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iostream>
#include <memory>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/strings.hh"
#include "sched/dag_schedule.hh"
#include "runtime/experiment.hh"
#include "runtime/perf_report.hh"
#include "runtime/result_sink.hh"
#include "runtime/shard_merge.hh"
#include "runtime/telemetry.hh"
#include "runtime/thread_pool.hh"
#include "simd/occupancy.hh"

using namespace griffin;

namespace {

std::vector<std::string>
registryNames()
{
    std::vector<std::string> names;
    for (const auto &exp : experimentRegistry())
        names.push_back(exp.name);
    return names;
}

const Experiment &
experimentOrDie(const std::string &name)
{
    const Experiment *exp = findExperiment(name);
    if (exp == nullptr)
        fatal("unknown experiment '", name, "'; did you mean '",
              nearestName(name, registryNames()),
              "'? (see griffin_bench list)");
    return *exp;
}

/** Case-insensitive benchmark-network lookup; nullopt-style via an
 *  empty name sentinel is avoided by returning a found flag. */
bool
findNetwork(const std::string &name, NetworkSpec &out)
{
    const auto fold = [](std::string s) {
        std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
            return static_cast<char>(std::tolower(c));
        });
        return s;
    };
    const std::string wanted = fold(name);
    for (auto &net : benchmarkSuite()) {
        if (fold(net.name) == wanted) {
            out = std::move(net);
            return true;
        }
    }
    return false;
}

/** The `networks` subcommand: the benchmark suite as a table. */
Table
networkListTable()
{
    Table t("Benchmark networks (paper Table IV)",
            {"network", "nodes", "edges", "macs", "dense cycles",
             "B/A sparsity", "accuracy"});
    const TileShape shape{};
    for (const auto &net : benchmarkSuite()) {
        std::size_t edges = 0;
        for (const auto &node : net.nodes)
            edges += node.inputs.size();
        t.addRow({net.name, std::to_string(net.layerCount()),
                  std::to_string(edges), std::to_string(net.macs()),
                  std::to_string(net.denseCycles(shape)),
                  Table::num(net.weightSparsity, 2) + "/" +
                      Table::num(net.actSparsity, 2),
                  net.accuracy});
    }
    return t;
}

/** bench-style table output: boxed or CSV on stdout, optional JSON
 *  Lines trajectory file (first table truncates, the rest append). */
struct TableEmitter
{
    bool csv = false;
    std::string jsonPath;
    bool jsonStarted = false;

    void
    show(const Table &table)
    {
        if (csv)
            table.printCsv(std::cout);
        else
            table.print(std::cout);
        std::cout << '\n';
        if (jsonPath.empty())
            return;
        std::ofstream os(jsonPath, jsonStarted ? std::ios::app
                                               : std::ios::trunc);
        if (!os)
            fatal("cannot open --json path '", jsonPath, "'");
        jsonStarted = true;
        writeTableJsonLine(os, table);
    }
};

/** The pinned `perf` microbench suite: one B-side, one A-side, one
 *  dual-sparse experiment, so every pipeline stage shows up in the
 *  breakdown while the suite stays CI-cheap (fig8-scale sweeps are
 *  deliberately excluded). */
const std::vector<std::string> perfSuite = {"fig5", "fig6", "fig7"};

/** `griffin_bench perf` fidelity defaults: far below the experiments'
 *  tuned defaults, because perf runs measure the harness, not the
 *  paper's numbers. */
constexpr double perfDefaultSample = 0.02;
constexpr std::int64_t perfDefaultRowCap = 8;

/**
 * `perf --kernels` micro-benchmark: time each entry of the active
 * KernelTable over synthetic operands sized like the hot path's real
 * inputs (64-wide tile rows, 4K-slot head arrays, one engine refill
 * block).  Numbers are machine-dependent by nature — they live in the
 * perf artifact, never in result rows — but the per-op normalization
 * makes backend-vs-backend and commit-over-commit deltas readable.
 */
std::vector<PerfKernel>
benchKernels()
{
    const simd::KernelTable &kern = simd::kernels();
    const std::string backend =
        simd::backendName(simd::activeBackend());

    // Synthetic operands: ~50% occupancy i8 tiles and head arrays
    // with a spread of values around the compare horizon.
    constexpr std::size_t kBytes = 1 << 16;
    constexpr std::int64_t kSlots = 4096;
    constexpr std::int64_t kBlock = 312; // one Mt64 refill
    Rng rng(Rng::defaultSeed);
    std::vector<std::int8_t> tile(kBytes);
    for (auto &v : tile)
        v = rng.bernoulli(0.5) ? rng.nonzeroInt8() : 0;
    std::vector<std::int64_t> heads(kSlots);
    for (auto &h : heads)
        h = rng.uniformInt(0, 1 << 20);
    std::vector<std::uint64_t> state(kBlock);
    for (auto &w : state)
        w = static_cast<std::uint64_t>(rng.uniformInt(0, 1 << 30));

    std::vector<std::uint64_t> masks(kBytes / 64);
    std::vector<std::int32_t> counts(kBytes, 0);
    std::vector<std::uint64_t> bits((kSlots + 63) / 64);
    std::vector<std::uint64_t> tempered(kBlock);

    std::vector<PerfKernel> out;
    const auto timed = [&out, &backend](const char *name,
                                        std::uint64_t reps,
                                        std::uint64_t ops_per_rep,
                                        const auto &body) {
        body(); // warm caches and the dispatch pointer
        const std::uint64_t begin = monotonicNowNs();
        for (std::uint64_t r = 0; r < reps; ++r)
            body();
        const std::uint64_t ns = monotonicNowNs() - begin;
        PerfKernel k;
        k.kernel = name;
        k.backend = backend;
        k.ops = reps * ops_per_rep;
        k.totalMs = static_cast<double>(ns) / 1e6;
        k.nsPerOp = static_cast<double>(ns) /
                    static_cast<double>(k.ops);
        out.push_back(std::move(k));
    };

    timed("nonzero_masks", 2000, kBytes, [&] {
        kern.nonzeroMasks(tile.data(), 64, 64,
                          static_cast<std::int64_t>(kBytes / 64),
                          masks.data());
    });
    timed("count_nonzero", 2000, kBytes, [&] {
        kern.countNonzero(tile.data(), kBytes);
    });
    timed("accumulate_nonzero", 1000, kBytes, [&] {
        kern.accumulateNonzero(tile.data(), kBytes, counts.data());
    });
    timed("le_mask", 20000, static_cast<std::uint64_t>(kSlots), [&] {
        kern.leMask(heads.data(), kSlots, 1 << 19, bits.data());
    });
    timed("min_i64", 20000, static_cast<std::uint64_t>(kSlots), [&] {
        kern.minI64(heads.data(), kSlots);
    });
    timed("mt_temper", 100000, static_cast<std::uint64_t>(kBlock), [&] {
        kern.mtTemper(state.data(), kBlock, tempered.data());
    });
    timed("mt_twist", 100000, static_cast<std::uint64_t>(kBlock), [&] {
        kern.mtTwist(state.data());
    });
    return out;
}

/**
 * `perf` subcommand: run the pinned suite with Aggregate telemetry,
 * one experiment per sweep so each profile is that experiment's own,
 * and write the schema-versioned BENCH_perf.json trajectory artifact.
 * With --kernels, the SIMD kernel micro-benchmarks run too (and alone
 * when no experiment names are given), landing as the artifact's
 * "kernels" section.
 */
int
runPerfSuite(const Cli &cli, const std::vector<std::string> &names)
{
    const bool kernels_mode = cli.getBool("kernels");
    std::vector<std::string> suite =
        names.empty() && !kernels_mode ? perfSuite : names;
    for (const auto &name : suite)
        experimentOrDie(name);

    ExperimentRunConfig config;
    config.threads = resolveThreads(cli);
    const RunOptions run =
        resolveFidelity(cli, perfDefaultSample, perfDefaultRowCap);

    Telemetry::setMode(Telemetry::Mode::Aggregate);
    MetricsRegistry &reg = MetricsRegistry::instance();

    PerfDocument doc;
    doc.threads = config.threads;
    doc.sample = run.sim.sampleFraction;
    doc.rowCap = run.rowCap;
    doc.seed = run.seed;

    const std::uint64_t suite_start_ns = monotonicNowNs();
    for (const auto &name : suite) {
        const Experiment &exp = experimentOrDie(name);
        Telemetry::clear();
        const auto outcome = runExperiment(exp, run, config);
        if (!outcome.hasSweep) {
            inform("perf: skipping render-only experiment '", name,
                   "'");
            continue;
        }
        PerfEntry entry;
        entry.experiment = name;
        entry.jobs = outcome.sweep.jobs().size();
        entry.wallMs = reg.gauge("sweep.wall_ms").value();
        entry.jobsPerSec = reg.gauge("sweep.jobs_per_sec").value();
        entry.threadUtilization = reg.gauge("pool.utilization").value();
        entry.poolSteals = static_cast<std::uint64_t>(
            reg.gauge("pool.steals").value());
        entry.poolBusyMs = reg.gauge("pool.busy_ms").value();
        for (const auto &stage : Telemetry::stageBreakdown())
            entry.stages.push_back(
                {stage.stage, stage.count, stage.totalMs()});
        doc.suite.push_back(std::move(entry));
    }
    if (kernels_mode) {
        doc.kernels = benchKernels();
        inform("kernels: micro-benchmarked ", doc.kernels.size(),
               " kernel(s) on the '",
               simd::backendName(simd::activeBackend()),
               "' backend");
    }
    doc.totalWallMs =
        static_cast<double>(monotonicNowNs() - suite_start_ns) / 1e6;

    std::string out_path = cli.getString("out");
    if (out_path.empty())
        out_path = "BENCH_perf.json";
    std::ofstream os(out_path);
    if (!os)
        fatal("cannot open perf output path '", out_path, "'");
    writePerfJson(os, doc);
    if (!os)
        fatal("write to perf output path '", out_path, "' failed");
    inform("wrote perf trajectory for ", doc.suite.size(),
           " experiment(s) to ", out_path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("griffin_bench: run registered paper experiments "
            "(subcommands: list | networks | describe <name...> | "
            "run <name...|--all> | merge <shard.jsonl...> | "
            "perf [name...] [--kernels] | "
            "perf --compare [--gate] old.json new.json; "
            "describe also takes a benchmark network name and renders "
            "its dataflow DAG and schedules)");
    addFidelityFlags(cli);
    cli.addBool("all", false, "run every registered experiment");
    cli.addInt("threads", ThreadPool::hardwareThreads(),
               "worker threads, 1.." + std::to_string(maxThreads) +
                   " (1 = serial; results are bit-identical for any "
                   "value)");
    cli.addString("grid", "",
                  "named-axis grid override applied over the "
                  "experiment's own axes, e.g. "
                  "\"network=alexnet,seed=1..4\"");
    cli.addString("grid-shard", "",
                  "run shard i of n (\"i/n\"): contiguous slice of "
                  "every sweep's job list; emits result rows only");
    cli.addBool("csv", false, "emit CSV tables instead of boxed ones");
    cli.addString("json", "",
                  "write each rendered table to this path as JSON "
                  "Lines (rewritten per run)");
    cli.addString("out", "",
                  "write result rows of every sweep to this path "
                  "(.json array, .csv, or .jsonl by suffix; for the "
                  "perf subcommand, the BENCH_perf.json path)");
    cli.addString("trace", "",
                  "record per-stage spans and write a Chrome "
                  "trace-event JSON file here (open in Perfetto; "
                  "result rows stay byte-identical)");
    cli.addBool("stats", false,
                "print the unified metrics registry (sweep and pool "
                "counters, peak RSS) as one JSON line on stdout after "
                "the tables");
    cli.addBool("timings", false,
                "add per-job elapsed_ms to --out result rows "
                "(machine-dependent, so off by default to keep "
                "baseline documents byte-identical)");
    cli.addBool("compare", false,
                "perf subcommand: compare two BENCH_perf.json "
                "documents (perf --compare old.json new.json)");
    cli.addBool("gate", false,
                "perf --compare: exit nonzero when any experiment "
                "present in both documents regresses jobs_per_sec by "
                "more than 10%");
    cli.addBool("kernels", false,
                "perf subcommand: micro-benchmark the SIMD kernel "
                "table (active dispatch backend) and add the schema-v2 "
                "\"kernels\" section to the artifact; alone — no "
                "experiment names — only the kernels run");
    const auto positional = cli.parse(argc, argv);

    if (positional.empty())
        fatal("missing subcommand (list | networks | describe | run | "
              "merge | perf)\n",
              cli.usage());
    const std::string &command = positional.front();
    std::vector<std::string> names(positional.begin() + 1,
                                   positional.end());

    if (command == "list") {
        if (!names.empty())
            fatal("list takes no arguments");
        experimentListTable().print(std::cout);
        return 0;
    }

    if (command == "networks") {
        if (!names.empty())
            fatal("networks takes no arguments");
        networkListTable().print(std::cout);
        return 0;
    }

    if (command == "describe") {
        if (names.empty())
            fatal("describe needs at least one experiment or network "
                  "name");
        for (const auto &name : names) {
            const Experiment *exp = findExperiment(name);
            if (exp != nullptr) {
                std::cout << describeExperiment(*exp);
                continue;
            }
            // Fall back to the benchmark networks: describe a DAG.
            NetworkSpec net;
            if (findNetwork(name, net)) {
                std::cout << describeDag(net);
                continue;
            }
            std::cout.flush();
            auto candidates = registryNames();
            for (const auto &net_name : networkNames())
                candidates.push_back(net_name);
            fatal("unknown experiment or network '", name,
                  "'; did you mean '", nearestName(name, candidates),
                  "'? (see griffin_bench list / networks)");
        }
        return 0;
    }

    if (command == "merge") {
        if (names.empty())
            fatal("merge needs at least one shard .jsonl document");
        const auto rows = readShardRows(names);
        const auto merged =
            mergeShardRows(rows, cli.getString("grid"));

        TableEmitter emitter;
        emitter.csv = cli.getBool("csv");
        emitter.jsonPath = cli.getString("json");
        std::unique_ptr<ResultSink> sink;
        if (!cli.getString("out").empty())
            sink = std::make_unique<ResultSink>(cli.getString("out"));

        for (const auto &me : merged) {
            ExperimentContext ctx;
            ctx.run = me.run;
            ctx.spec = &me.spec;
            ctx.sweep = &me.sweep;
            for (const auto &table : me.experiment->render(ctx))
                emitter.show(table);
            if (sink)
                for (auto &row :
                     sweepRows(me.sweep, me.experiment->name))
                    sink->add(std::move(row));
        }
        if (sink) {
            sink->flush();
            inform("wrote ", sink->rows().size(),
                   " merged result rows to ", cli.getString("out"));
        }
        inform("merged ", rows.size(), " rows from ", names.size(),
               " shard document(s) across ", merged.size(),
               " experiment(s); coverage complete");
        return 0;
    }

    if (command == "perf") {
        if (cli.getBool("compare")) {
            if (names.size() != 2)
                fatal("perf --compare needs exactly two "
                      "BENCH_perf.json paths, got ", names.size());
            const PerfDocument old_doc = loadPerfDocument(names[0]);
            const PerfDocument new_doc = loadPerfDocument(names[1]);
            TableEmitter emitter;
            emitter.csv = cli.getBool("csv");
            emitter.jsonPath = cli.getString("json");
            for (const auto &table :
                 renderPerfCompare(old_doc, new_doc))
                emitter.show(table);
            if (cli.getBool("gate")) {
                const auto violations =
                    perfGateViolations(old_doc, new_doc, 0.10);
                for (const auto &v : violations)
                    std::cerr << "perf gate: " << v << "\n";
                if (!violations.empty()) {
                    std::cerr << "perf gate: " << violations.size()
                              << " experiment(s) regressed beyond "
                                 "the 10% band\n";
                    return 1;
                }
                inform("perf gate: no experiment regressed beyond "
                       "the 10% band");
            }
            return 0;
        }
        return runPerfSuite(cli, names);
    }

    if (command != "run")
        fatal("unknown subcommand '", command, "'; did you mean '",
              nearestName(command,
                          {"list", "networks", "describe", "run",
                           "merge", "perf"}),
              "'? (list | networks | describe | run | merge | perf)\n",
              cli.usage());

    if (cli.getBool("all")) {
        if (!names.empty())
            fatal("run --all takes no experiment names");
        names = registryNames();
    }
    if (names.empty())
        fatal("run needs experiment names or --all");
    ExperimentRunConfig config;
    config.threads = resolveThreads(cli);
    config.collectTimings = cli.getBool("timings");
    config.gridOverride = cli.getString("grid");
    std::vector<ExperimentRequest> requests;
    for (const auto &name : names) {
        const Experiment &exp = experimentOrDie(name);
        requests.push_back(
            {&exp, resolveFidelity(cli, exp.defaultSample,
                                   exp.defaultRowCap)});
    }

    // --trace turns span recording on for the whole run; the spans
    // observe the pipeline without touching any result byte, so --out
    // documents are identical with and without it (pinned by the
    // telemetry_smoke ctest).
    const std::string trace_path = cli.getString("trace");
    if (!trace_path.empty())
        Telemetry::setMode(Telemetry::Mode::Full);
    parseShardSpec(cli.getString("grid-shard"), config.shardIndex,
                   config.shardCount);
    // A shard renders no tables (it holds one slice of each grid), so
    // without a row sink the whole sweep would be computed and thrown
    // away — fail before the work, not after.
    if (config.shardCount > 1 && cli.getString("out").empty())
        fatal("--grid-shard emits result rows only; pass --out <path> "
              "(.jsonl, so shard files concatenate to the unsharded "
              "document)");

    TableEmitter emitter;
    emitter.csv = cli.getBool("csv");
    emitter.jsonPath = cli.getString("json");

    std::unique_ptr<ResultSink> sink;
    if (!cli.getString("out").empty())
        sink = std::make_unique<ResultSink>(cli.getString("out"));

    // The writers open their paths only after the sweep, so probe each
    // one now: an unwritable path fails before the work, not after.
    // Append mode creates a missing file and never truncates one.
    const std::pair<std::string, const char *> outputs[] = {
        {cli.getString("out"), "result sink path"},
        {emitter.jsonPath, "--json path"},
        {trace_path, "--trace path"}};
    for (const auto &[path, what] : outputs)
        if (!path.empty() && !std::ofstream(path, std::ios::app))
            fatal("cannot open ", what, " '", path, "'");

    // One plan for every named experiment: each spec is built and
    // validated before the first sweep starts, so a typo or an
    // out-of-range option fails before hours of sweeping, not after.
    const auto outcomes = runExperiments(requests, config);
    bool swept = false;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        for (const auto &table : outcomes[i].tables)
            emitter.show(table);
        if (outcomes[i].hasSweep && sink)
            sink->add(outcomes[i].sweep, requests[i].experiment->name);
        swept = swept || outcomes[i].hasSweep;
    }
    // The registry line carries the sweep/pool counters the run just
    // published — the machine-readable form of stats that merge and the
    // table renderers drop.
    if (swept && cli.getBool("stats"))
        writeMetricsJsonLine(std::cout, MetricsRegistry::instance());

    if (!trace_path.empty()) {
        std::ofstream os(trace_path);
        if (!os)
            fatal("cannot open --trace path '", trace_path, "'");
        Telemetry::writeChromeTrace(os);
        if (!os)
            fatal("write to --trace path '", trace_path, "' failed");
        inform("wrote ", Telemetry::eventCount(), " trace events to ",
               trace_path);
    }

    if (sink) {
        sink->flush();
        inform("wrote ", sink->rows().size(), " result rows to ",
               cli.getString("out"));
    }
    return 0;
}
