/**
 * @file
 * Declarative experiment sweeps over the (architecture x network x
 * category x RunOptions) grid, run as tasks on worker threads that
 * each run their own share and then steal (runTasks).
 *
 * Sparse-optimization studies sweep grids far larger than six
 * networks, so the runner turns the grid into independent jobs:
 *
 *   SweepSpec spec;
 *   spec.archs = {sparseBStar(), griffinArch()};
 *   spec.networks = benchmarkSuite();
 *   spec.categories = {DnnCategory::B, DnnCategory::AB};
 *   auto sweep = runSweep(spec, 8);
 *   writeJson(std::cout, sweep.results());
 *
 * Determinism: every job's inputs are fixed at expansion time (its
 * own RunOptions copy; Accelerator::run derives all randomness from
 * opt.seed and the network name), and results land in a slot indexed
 * by expansion order — so the merged output is bit-identical no
 * matter how many threads ran it or which worker stole which task.
 * Accelerator is const and shares no mutable state, which is what
 * makes the fan-out safe.
 *
 * Execution: runSweeps() plans the work before it runs any.  It
 * computes the operand parameters (Accelerator::layerWorksetParams) of
 * every (spec, job, layer) and groups the triples by (category,
 * WorksetParams) in first-seen order.  Each group is one task: it
 * makes the layer's deferred workset, runs every consumer's
 * Accelerator::runLayer over it, and frees it, so at most one workset
 * per worker is resident.  The first consumer that reads an operand
 * generates it for the group, and what no consumer reads is never
 * generated: a group of Sparse.A design points generates no B, a
 * group of vector cores draws only the column tiles of B they sample,
 * and SparTen streams B's columns and keeps none, so no group holds B
 * whole.  A group's consumers are the architectures of a grid point,
 * the option variants that leave the operands alone (DRAM bound,
 * schedule policy, SRAM budget) and, across specs, other experiments
 * over the same layers.  A per-job reduce
 * (Accelerator::reduceLayers) then reassembles each NetworkResult in
 * layer order.  Grouping changes no result.  A group's consumers
 * share the workset's slot queues of each sampled tile
 * (LayerWorkset::memo); per-tile schedules, which depend on the
 * design point, are recomputed by every consumer.
 *
 * Observation: every group belongs to one network layer (the network
 * name and the layer index seed its workset), so each task runs under one
 * `layer` span tagged with the network, the layer index and the layer
 * name, and a `--trace` run attributes every stage to a layer
 * (runtime/telemetry.hh).  runSweeps() can also hand back a SweepStats
 * record of its own execution: plan size, task totals, wall time, the
 * queue requests and builds summed over the groups
 * (memo.queue_requests, memo.queue_builds), the A sides generated
 * (gen.a_sides), B's column tiles kept for the group (gen.b_tiles),
 * every element generated (gen.elements: A, the tiles and SparTen's
 * streamed slabs), and the process's peak RSS.  Neither feeds back
 * into a result.
 */

#ifndef GRIFFIN_RUNTIME_RUNNER_HH
#define GRIFFIN_RUNTIME_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "griffin/accelerator.hh"

namespace griffin {

/**
 * One resolved (axis name, value token) pair of a grid-expanded
 * RunOptions variant.  Jobs carry their full coordinate list so every
 * serialized result row is self-describing (runtime/grid.hh builds
 * them; hand-built SweepSpecs may leave them empty).
 */
struct AxisCoordinate
{
    std::string axis;
    std::string value;

    bool
    operator==(const AxisCoordinate &o) const
    {
        return axis == o.axis && value == o.value;
    }
    bool operator!=(const AxisCoordinate &o) const { return !(*this == o); }
};

/**
 * One point of the sweep grid, fully determined before submission.
 * Indices refer to the SweepSpec vectors the job was expanded from.
 */
struct SweepJob
{
    std::size_t archIndex = 0;
    std::size_t networkIndex = 0;
    std::size_t categoryIndex = 0;
    std::size_t optionsIndex = 0;
    RunOptions options; ///< resolved options, job seed included
    /** Grid coordinates of this job's RunOptions variant (empty for
     *  hand-built variant lists). */
    std::vector<AxisCoordinate> coords;
};

/** The declarative grid. */
struct SweepSpec
{
    std::vector<ArchConfig> archs;
    std::vector<NetworkSpec> networks;
    std::vector<DnnCategory> categories;

    /**
     * RunOptions axis of the grid; one entry sweeps nothing.  Empty is
     * a fatal() user error (there would be no jobs).
     */
    std::vector<RunOptions> optionVariants = {RunOptions{}};

    /**
     * Axis coordinates describing each RunOptions variant, parallel to
     * optionVariants (GridSpec::toSweepSpec fills it).  Either empty —
     * jobs then carry no coordinates — or exactly one entry per
     * variant; any other size is a validate() error.
     */
    std::vector<std::vector<AxisCoordinate>> optionCoords;

    /**
     * Optional job predicate: expandSweep() drops jobs it rejects.
     * This is how an experiment runs a non-rectangular grid (e.g. each
     * architecture only in its own category) without paying for the
     * full cross product.  Null keeps every job.  The filter runs on
     * the fully-resolved job.
     */
    std::function<bool(const SweepJob &)> jobFilter;

    /**
     * Expanded job count of the full cartesian product
     * (archs * networks * categories * options) — before jobFilter is
     * applied; expandSweep().size() is the post-filter count.
     */
    std::size_t jobCount() const;

    /**
     * fatal() unless every identity axis is non-empty, optionCoords
     * matches optionVariants, and every RunOptions variant is usable:
     * finite doubles, weightLaneBias in [0, 1], sim.sampleFraction in
     * (0, 1], a positive rowCap, and a non-negative sramBudgetBytes.
     * expandSweep() calls it.
     */
    void validate() const;
};

/** Merged outcome of one sweep. */
class SweepResult
{
  public:
    SweepResult() = default;
    SweepResult(std::vector<SweepJob> jobs,
                std::vector<NetworkResult> results)
        : jobs_(std::move(jobs)), results_(std::move(results))
    {
    }

    /** Jobs in submission (= expansion) order. */
    const std::vector<SweepJob> &jobs() const { return jobs_; }

    /** results()[i] is jobs()[i]'s outcome — same order, any thread
     *  count. */
    const std::vector<NetworkResult> &results() const { return results_; }

    /**
     * Results of the jobs matching a predicate on SweepJob, in
     * submission order — the benches' aggregation views ("all networks
     * of arch a in category c") without hand-maintained index math.
     */
    template <typename Pred>
    std::vector<NetworkResult>
    slice(Pred pred) const
    {
        std::vector<NetworkResult> out;
        for (std::size_t i = 0; i < jobs_.size(); ++i)
            if (pred(jobs_[i]))
                out.push_back(results_[i]);
        return out;
    }

  private:
    std::vector<SweepJob> jobs_;
    std::vector<NetworkResult> results_;
};

/**
 * Expand the grid in (options, arch, network, category) nesting order
 * — the order a serial quadruple loop would visit it.
 */
std::vector<SweepJob> expandSweep(const SweepSpec &spec);

/**
 * One runSweeps() call's report of its own execution, metric name to
 * value in name order (`griffin_bench --stats` prints it as one JSON
 * line, writeMetricsJsonLine).  Counts of the plan and of the work it
 * generated (sweep.jobs, pool.executed_jobs, memo.*, gen.*) depend on
 * the specs only; times, steals and peak RSS on the machine.
 */
using SweepStats = std::map<std::string, double>;

/**
 * Run several sweeps as one plan on `threads` workers (1 = serial
 * through the same code path): every spec is expanded and validated
 * before any work starts, and a workset side shared by specs is
 * generated once, when its first consumer reads it.  Element i of the
 * result is specs[i]'s outcome, bit-identical to
 * runSweep(specs[i], threads) at any thread count.  A non-null
 * `stats` receives the run's SweepStats (untouched when `specs` is
 * empty).
 */
std::vector<SweepResult> runSweeps(const std::vector<SweepSpec> &specs,
                                   int threads,
                                   SweepStats *stats = nullptr);

/** The one-spec case of runSweeps(). */
SweepResult runSweep(const SweepSpec &spec, int threads);

/** What one runTasks() call did. */
struct TaskStats
{
    std::uint64_t executed = 0; ///< tasks run (= the count)
    std::uint64_t steals = 0;   ///< tasks run by a worker they are not
                                ///< dealt to
    std::uint64_t busyNs = 0;   ///< task wall time summed over workers
};

/**
 * Run task(0) .. task(count - 1) on `threads` new worker threads
 * (fatal() unless threads >= 1) and join them, so the workers'
 * thread-local work arenas (common/arena.hh) are freed when the call
 * returns.  Tasks must not throw (the library reports errors through
 * fatal()/panic()).
 *
 * Order: worker w is dealt tasks w, w + threads, w + 2 * threads, ...
 * and runs them in that order.  When its share is claimed it takes
 * the oldest unclaimed task of worker w + 1, then of w + 2, ... (mod
 * threads) until every share is claimed.  A share never grows, so one
 * pass over the others in that order takes what rescanning after
 * every steal would.  Which tasks run side by side, and so a sweep's
 * peak memory, then follows from the task order and the thread count,
 * not from thread timing; only which worker takes which tail task
 * does.
 *
 * Why share-then-steal and not something simpler: two simpler
 * policies were measured against it (`griffin_bench run <exp>
 * --threads 4 --seed 1`, Release, medians of 8 rotating rounds on a
 * 4-vCPU x86 VM; identical rows throughout):
 *
 *  - one shared queue in task order (an atomic next-task index) kept
 *    wall time (fig7 0.550 s against 0.543 s here, fig8 0.376 against
 *    0.368) but raised peak RSS, fig7 from 69.1 to 102.4 MiB and fig8
 *    from 68.6 to 136.9 MiB;
 *  - a static split (the shares above, no stealing) kept peak RSS but
 *    stalled on the uneven tail: fig5 0.116 to 0.166 s, fig7 0.543 to
 *    0.683 s, fig8 0.368 to 0.563 s.
 */
TaskStats runTasks(std::size_t count, int threads,
                   const std::function<void(std::size_t)> &task);

} // namespace griffin

#endif // GRIFFIN_RUNTIME_RUNNER_HH
