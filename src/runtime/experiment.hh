/**
 * @file
 * Declarative experiment registry: the paper's figures, tables, and
 * ablations as data, executed by one driver.
 *
 * The repo used to ship one hand-written bench `main()` per paper
 * artifact, each re-implementing flag parsing, serial grid walking,
 * and table/sink plumbing.  An Experiment instead *describes* the
 * artifact:
 *
 *   - `setup` builds an ExperimentPlan — a GridSpec plus the base
 *     SweepSpec it expands over — from the resolved RunOptions.  The
 *     driver expands the plan and executes it through runSweeps, so
 *     every registered experiment is parallel (`--threads`) and
 *     shares operand generation with the other experiments of its run
 *     for free.  A null setup declares a render-only experiment (the
 *     static paper tables) that runs no sweep.
 *
 *   - `render` reduces the merged SweepResult into the experiment's
 *     Table(s).  SweepResult::slice plus the ExperimentContext geomean
 *     helpers are the reduce primitives; render never re-runs
 *     anything, so its output is a pure function of the sweep.
 *
 * Registration happens at static-init time from bench/experiments/
 * translation units:
 *
 *   const bool registered = registerExperiment({
 *       "fig5", "Fig. 5: Sparse.B design space",
 *       0.02, 32, setup, render});
 *
 * and `griffin_bench list | describe <name> | run <name...|--all>` is
 * the single driver over the registry.  The registry is kept sorted by
 * name so list/run order is deterministic regardless of static-init
 * order across translation units.
 */

#ifndef GRIFFIN_RUNTIME_EXPERIMENT_HH
#define GRIFFIN_RUNTIME_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/table.hh"
#include "runtime/grid.hh"
#include "runtime/runner.hh"

namespace griffin {

/**
 * What an experiment's sweep covers: named grid axes expanded over a
 * base spec.  The grid may be empty (a hand-built base is enough, e.g.
 * non-rectangular sweeps via SweepSpec::jobFilter); the base's
 * optionVariants are overwritten by the driver with the resolved
 * fidelity options, so setup must not populate them — RunOptions
 * sweeps are declared as grid axes.
 */
struct ExperimentPlan
{
    GridSpec grid;
    SweepSpec base;
    /**
     * Axes this experiment's render depends on structurally — fixed
     * arch/category indices, hard-coded labels, or a jobFilter keyed
     * to the declared order.  A --grid override naming one is a
     * fatal() user error rather than a silently mislabeled (or
     * out-of-bounds) table.  Axes not listed here merge freely: an
     * override replaces the values of a same-named plan axis and
     * appends new axes after the plan's own.
     */
    std::vector<std::string> lockedAxes;
};

/** Everything render() may read. */
struct ExperimentContext
{
    /** Resolved fidelity options (seed, sample, rowcap, lane bias). */
    RunOptions run;
    /** Expanded spec / merged results; null for render-only
     *  experiments. */
    const SweepSpec *spec = nullptr;
    const SweepResult *sweep = nullptr;

    /** Geomean speedup over every network of one architecture (all
     *  categories and variants) — Fig. 5/6's per-config aggregate. */
    double archGeomean(std::size_t archIndex) const;

    /** Geomean speedup over every network of (arch, category) — the
     *  old per-bench suiteSpeedup() aggregate. */
    double suiteGeomean(std::size_t archIndex,
                        std::size_t categoryIndex) const;

    /** Geomean speedup of (options variant, arch, category). */
    double variantGeomean(std::size_t optionsIndex,
                          std::size_t archIndex,
                          std::size_t categoryIndex) const;
};

/**
 * One registered experiment.  `name` is the registry key (and the
 * `run` subcommand argument); defaults are the fidelity the paper
 * artifact was tuned at, used when the driver's --sample/--rowcap are
 * left at their sentinel.
 */
struct Experiment
{
    std::string name;
    std::string description;
    double defaultSample = 0.04;
    std::int64_t defaultRowCap = 48;
    /** Build the sweep plan; null = render-only (no sweep). */
    std::function<ExperimentPlan(const RunOptions &)> setup;
    /** Reduce + render: the experiment's tables, print order. */
    std::function<std::vector<Table>(const ExperimentContext &)> render;
};

/**
 * Register one experiment.  fatal() on an empty or duplicate name or a
 * null render.  Returns true so static-init registration can bind the
 * result (`const bool registered = registerExperiment(...)`).
 */
bool registerExperiment(Experiment experiment);

/** Registered experiments, sorted by name. */
const std::vector<Experiment> &experimentRegistry();

/** Lookup by name; null when absent. */
const Experiment *findExperiment(const std::string &name);

/** The `list` subcommand's table: name, sweep size, description. */
Table experimentListTable();

/**
 * The `describe <name>` text: description, default fidelity, grid
 * axes, and expanded job count (at default options).
 */
std::string describeExperiment(const Experiment &experiment);

/** Execution knobs the driver resolves from its flags, shared by
 *  every experiment of one run. */
struct ExperimentRunConfig
{
    int threads = 1;
    /** --grid override text, applied over the experiment's expanded
     *  spec (empty = none). */
    std::string gridOverride;
};

/** One experiment of a run and the fidelity it runs at. */
struct ExperimentRequest
{
    const Experiment *experiment = nullptr;
    /** Resolved fidelity options (seed, sample, rowcap, lane bias). */
    RunOptions run;
};

/** One experiment's executed outcome. */
struct ExperimentOutcome
{
    bool hasSweep = false;
    SweepSpec spec;
    SweepResult sweep;
    /** Rendered tables, print order. */
    std::vector<Table> tables;
};

/**
 * Expand one experiment's plan into the sweep spec it runs: setup at
 * the resolved fidelity, the --grid override merged over the plan's
 * own axes (same-named unlocked axes replaced in place, new axes
 * appended), and the grid expanded onto the base.  fatal() on a
 * render-only experiment (no setup).
 */
SweepSpec buildExperimentSpec(const Experiment &experiment,
                              const RunOptions &run,
                              const std::string &gridOverride = "");

/**
 * Execute several experiments as one plan: expand every plan (grid
 * override applied), run all the sweeps through one runSweeps() call,
 * so a layer workset that several experiments share is generated once,
 * and render each.  Render-only experiments skip straight to render.
 * A non-empty override is parsed once, before any plan, so malformed
 * text is fatal() even when no named experiment sweeps.  outcomes[i]
 * is requests[i]'s.  A non-null `stats` receives the runSweeps()
 * record of the plan (untouched when no request sweeps).
 */
std::vector<ExperimentOutcome>
runExperiments(const std::vector<ExperimentRequest> &requests,
               const ExperimentRunConfig &config,
               SweepStats *stats = nullptr);

/** The one-experiment case of runExperiments(). */
ExperimentOutcome runExperiment(const Experiment &experiment,
                                const RunOptions &run,
                                const ExperimentRunConfig &config = {});

/**
 * Declare the shared fidelity flags (--sample, --rowcap, --seed,
 * --lanebias).  `sample`/`rowcap` default to -1, the "use the
 * experiment's default" sentinel, so one flag set serves experiments
 * with different tuned fidelities.
 */
void addFidelityFlags(Cli &cli);

/**
 * Fidelity floor applied by every resolveFidelity() result: the
 * minimum tiles simulated per layer regardless of --sample.
 */
constexpr std::int64_t defaultMinSampledTiles = 4;

/**
 * Read the fidelity flags back, substituting `default_sample` /
 * `default_rowcap` where the flag holds the -1 sentinel.  fatal() on a
 * negative --seed; every other range is SweepSpec::validate()'s.
 */
RunOptions resolveFidelity(const Cli &cli, double default_sample,
                           std::int64_t default_rowcap);

/**
 * Ceiling on --threads: far above any host's core count, and low
 * enough that a mistyped value cannot try to start millions of
 * threads.
 */
constexpr std::int64_t maxThreads = 1024;

/**
 * Read --threads back as the runner's worker count; fatal() unless it
 * is in 1..maxThreads (checked before narrowing to int, so a huge
 * value cannot wrap to a small one).
 */
int resolveThreads(const Cli &cli);

/**
 * std::thread::hardware_concurrency with a floor of 1: the --threads
 * default.
 */
int hardwareThreads();

} // namespace griffin

#endif // GRIFFIN_RUNTIME_EXPERIMENT_HH
