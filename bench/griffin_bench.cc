/**
 * @file
 * The one bench driver: every paper figure, table, and ablation is a
 * registered Experiment (bench/experiments/), listed, described, and
 * executed here.
 *
 *   griffin_bench list
 *   griffin_bench networks
 *   griffin_bench describe fig5
 *   griffin_bench run fig5 fig6 --threads 8
 *   griffin_bench run --all --sample 0.01 --rowcap 4 --out results.jsonl
 *
 * Every experiment accepts the same flag set: fidelity (--sample,
 * --rowcap, --seed, --lanebias; sample/rowcap default to the
 * experiment's tuned fidelity), parallelism (--threads), grid
 * overrides (--grid, applied over the experiment's own axes: any axis
 * the experiment does not lock can be swept, e.g.
 * `run fig5 --grid "arch=Griffin,network=resnet50,seed=1..2"`), and
 * output (--csv tables, --json table JSON Lines, --out result-row
 * document: .json/.csv/.jsonl by suffix).  One `run` is one plan: the
 * experiments it names share one set of workers, and a layer workset
 * several of them use is generated once.
 */

#include <fstream>
#include <iostream>
#include <memory>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "sched/dag_schedule.hh"
#include "runtime/experiment.hh"
#include "runtime/result_sink.hh"
#include "runtime/telemetry.hh"

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
        os.close();
        if (!os)
            fatalRun("write to --json path '", jsonPath, "' failed");
    }
};

/** The exit status of a subcommand that succeeded: stdout is flushed
 *  and checked first, so a lost table or listing (a full device, a
 *  closed pipe) fails the run instead of exiting 0. */
int
stdoutStatus()
{
    std::cout.flush();
    if (!std::cout)
        fatalRun("write to stdout failed");
    return exitSuccess;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("griffin_bench: run registered paper experiments "
            "(subcommands: list | networks | describe <name...> | "
            "run <name...|--all>; describe also takes a benchmark "
            "network name and renders its dataflow DAG and schedules)");
    addFidelityFlags(cli);
    cli.addBool("all", false, "run every registered experiment");
    cli.addInt("threads", hardwareThreads(),
               "worker threads, 1.." + std::to_string(maxThreads) +
                   " (1 = serial; results are bit-identical for any "
                   "value)");
    cli.addString("grid", "",
                  "named-axis grid override applied over the "
                  "experiment's own axes, e.g. "
                  "\"network=alexnet,seed=1..4\"");
    cli.addBool("csv", false, "emit CSV tables instead of boxed ones");
    cli.addString("json", "",
                  "write each rendered table to this path as JSON "
                  "Lines (rewritten per run)");
    cli.addString("out", "",
                  "write result rows of every sweep to this path "
                  "(.json array, .csv, or .jsonl by suffix)");
    cli.addString("trace", "",
                  "record per-layer and per-stage spans and write a "
                  "Chrome trace-event JSON file here (open in "
                  "Perfetto; result rows stay byte-identical)");
    cli.addBool("stats", false,
                "print the run's sweep, pool, memo and generation "
                "counts and its peak RSS as one JSON line on stdout "
                "after the tables");
    const auto positional = cli.parse(argc, argv);

    if (positional.empty())
        fatal("missing subcommand (list | networks | describe | run)\n",
              cli.usage());
    const std::string &command = positional.front();
    std::vector<std::string> names(positional.begin() + 1,
                                   positional.end());

    if (command == "list") {
        if (!names.empty())
            fatal("list takes no arguments");
        experimentListTable().print(std::cout);
        return stdoutStatus();
    }

    if (command == "networks") {
        if (!names.empty())
            fatal("networks takes no arguments");
        networkListTable().print(std::cout);
        return stdoutStatus();
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
            if (const auto net = findNetwork(name)) {
                std::cout << describeDag(*net);
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
        return stdoutStatus();
    }

    if (command != "run")
        fatal("unknown subcommand '", command, "'; did you mean '",
              nearestName(command, {"list", "networks", "describe", "run"}),
              "'? (list | networks | describe | run)\n", cli.usage());

    if (cli.getBool("all")) {
        if (!names.empty())
            fatal("run --all takes no experiment names");
        names = registryNames();
    }
    if (names.empty())
        fatal("run needs experiment names or --all");
    ExperimentRunConfig config;
    config.threads = resolveThreads(cli);
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
    Telemetry::setEnabled(!trace_path.empty());

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
    SweepStats stats;
    const auto outcomes = runExperiments(requests, config, &stats);
    bool swept = false;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        for (const auto &table : outcomes[i].tables)
            emitter.show(table);
        if (outcomes[i].hasSweep && sink)
            sink->add(outcomes[i].sweep, requests[i].experiment->name);
        swept = swept || outcomes[i].hasSweep;
    }
    // The stats line carries the counts the plan's run reported — the
    // machine-readable form of stats the table renderers drop.
    if (swept && cli.getBool("stats"))
        writeMetricsJsonLine(std::cout, stats);

    if (!trace_path.empty()) {
        std::ofstream os(trace_path);
        if (!os)
            fatal("cannot open --trace path '", trace_path, "'");
        Telemetry::writeChromeTrace(os);
        os.close();
        if (!os)
            fatalRun("write to --trace path '", trace_path, "' failed");
        inform("wrote ", Telemetry::eventCount(), " trace events to ",
               trace_path);
    }

    if (sink) {
        sink->flush();
        inform("wrote ", sink->rows().size(), " result rows to ",
               cli.getString("out"));
    }
    return stdoutStatus();
}
