#include "runtime/runner.hh"

#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "runtime/telemetry.hh"

namespace griffin {

namespace {

/**
 * User-facing range checks on one RunOptions variant, named by its grid
 * axis.  The generators and the tile sampler assert the same ranges,
 * so a bad --lanebias/--sample or --grid value must stop here, with a
 * diagnostic, before any work; a non-finite value would also reach the
 * result rows as bare `nan`/`inf`, which is not JSON.
 */
void
validateOptions(const RunOptions &opt)
{
    const std::pair<const char *, double> fields[] = {
        {"weight_lane_bias", opt.weightLaneBias},
        {"act_run_length", opt.actRunLength},
        {"sample_fraction", opt.sim.sampleFraction},
    };
    for (const auto &[axis, value] : fields)
        if (!std::isfinite(value))
            fatal("sweep option ", axis, " ", value, " is not finite");
    if (opt.weightLaneBias < 0.0 || opt.weightLaneBias > 1.0)
        fatal("sweep option weight_lane_bias ", opt.weightLaneBias,
              " is outside [0, 1]");
    if (opt.sim.sampleFraction <= 0.0 || opt.sim.sampleFraction > 1.0)
        fatal("sweep option sample_fraction ", opt.sim.sampleFraction,
              " is outside (0, 1]");
    if (opt.rowCap <= 0)
        fatal("sweep option row_cap ", opt.rowCap, " is not positive");
    if (opt.sramBudgetBytes < 0)
        fatal("sweep option SRAM budget of ", opt.sramBudgetBytes,
              " bytes is negative");
}

} // namespace

std::size_t
SweepSpec::jobCount() const
{
    return archs.size() * networks.size() * categories.size() *
           optionVariants.size();
}

void
SweepSpec::validate() const
{
    if (archs.empty())
        fatal("sweep spec has no architectures");
    if (networks.empty())
        fatal("sweep spec has no networks");
    if (categories.empty())
        fatal("sweep spec has no categories");
    if (optionVariants.empty())
        fatal("sweep spec has no RunOptions variants");
    if (!optionCoords.empty() &&
        optionCoords.size() != optionVariants.size())
        fatal("sweep spec has ", optionCoords.size(),
              " axis-coordinate records for ", optionVariants.size(),
              " RunOptions variants (must match, or be empty)");
    for (const auto &opt : optionVariants)
        validateOptions(opt);
    for (const auto &arch : archs)
        arch.validate();
    for (const auto &net : networks)
        net.validate();
}

std::vector<SweepJob>
expandSweep(const SweepSpec &spec)
{
    spec.validate();
    std::vector<SweepJob> jobs;
    jobs.reserve(spec.jobCount());
    for (std::size_t o = 0; o < spec.optionVariants.size(); ++o) {
        for (std::size_t a = 0; a < spec.archs.size(); ++a) {
            for (std::size_t n = 0; n < spec.networks.size(); ++n) {
                for (std::size_t c = 0; c < spec.categories.size();
                     ++c) {
                    SweepJob job;
                    job.archIndex = a;
                    job.networkIndex = n;
                    job.categoryIndex = c;
                    job.optionsIndex = o;
                    job.options = spec.optionVariants[o];
                    if (!spec.optionCoords.empty())
                        job.coords = spec.optionCoords[o];
                    if (spec.jobFilter && !spec.jobFilter(job))
                        continue;
                    jobs.push_back(std::move(job));
                }
            }
        }
    }
    return jobs;
}

namespace {

/** One (spec, job, layer) that consumes a group's workset. */
struct Consumer
{
    std::size_t spec = 0;
    std::size_t job = 0;
    std::size_t layer = 0;
};

/**
 * A group's key.  The workset is a pure function of the
 * WorksetParams; the category is in the key only to keep tasks small:
 * where a layer's own sparsity makes one operand dense, categories
 * share a workset, and merging them makes fewer, longer tasks and a
 * longer tail.
 */
using GroupKey = std::pair<DnnCategory, WorksetParams>;
using Groups = std::map<GroupKey, std::vector<Consumer>>;

} // namespace

std::vector<SweepResult>
runSweeps(const std::vector<SweepSpec> &specs, int threads,
          SweepStats *stats)
{
    if (specs.empty())
        return {};
    // Expand (and so validate) every spec before any work starts.
    std::vector<std::vector<SweepJob>> jobs;
    jobs.reserve(specs.size());
    for (const auto &spec : specs)
        jobs.push_back(expandSweep(spec));

    // One Accelerator per (spec, architecture), shared read-only by
    // every job of the spec.
    std::vector<std::vector<Accelerator>> accelerators(specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
        accelerators[s].reserve(specs[s].archs.size());
        for (const auto &arch : specs[s].archs)
            accelerators[s].emplace_back(arch);
    }

    const std::uint64_t sweep_start_ns = monotonicNowNs();

    // The plan: every (spec, job, layer) joins the group of its
    // (category, workset parameters), and groups keep first-seen order.
    // Each task writes only its consumers' (job, layer) slots: no
    // result lock needed, and the merge is the identity — expansion
    // order is result order.
    Groups groups;
    std::vector<Groups::const_iterator> order;
    std::vector<std::vector<std::vector<LayerResult>>> layer_results(
        specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
        layer_results[s].resize(jobs[s].size());
        for (std::size_t i = 0; i < jobs[s].size(); ++i) {
            const SweepJob &job = jobs[s][i];
            const NetworkSpec &net = specs[s].networks[job.networkIndex];
            const DnnCategory cat = specs[s].categories[job.categoryIndex];
            layer_results[s][i].resize(net.layerCount());
            for (std::size_t l = 0; l < net.layerCount(); ++l) {
                const auto [it, fresh] = groups.try_emplace(GroupKey{
                    cat, accelerators[s][job.archIndex].layerWorksetParams(
                             net, l, cat, job.options)});
                if (fresh)
                    order.push_back(it);
                it->second.push_back({s, i, l});
            }
        }
    }

    // The worksets' queue memos, generated sides and drawn column
    // tiles, summed over groups (--stats): every count follows from the
    // plan alone.
    std::atomic<std::int64_t> queue_requests{0}, queue_builds{0};
    std::atomic<std::int64_t> a_sides{0}, b_tiles{0};
    std::atomic<std::int64_t> elements{0};

    // The groups run as tasks in plan order, so every worker runs its
    // share of them in plan order: which worksets are resident
    // together, and so the sweep's peak RSS, follows from the plan and
    // the thread count, not from thread timing.
    const TaskStats task_stats = runTasks(
        order.size(), threads, [&](std::size_t t) {
            const auto &group = order[t];
            // Every consumer of a group runs the same network layer.
            const Consumer &first = group->second.front();
            const NetworkSpec &net =
                specs[first.spec]
                    .networks[jobs[first.spec][first.job].networkIndex];
            const ScopedSpan span(LayerTag{net.name, first.layer,
                                           net.layer(first.layer).name});
            // Deferred: the consumers generate what they read.
            const LayerWorkset workset(group->first.second);
            for (const Consumer &c : group->second) {
                const SweepSpec &spec = specs[c.spec];
                const SweepJob &job = jobs[c.spec][c.job];
                layer_results[c.spec][c.job][c.layer] =
                    accelerators[c.spec][job.archIndex].runLayer(
                        spec.networks[job.networkIndex], c.layer,
                        spec.categories[job.categoryIndex], job.options,
                        workset);
            }
            queue_requests.fetch_add(workset.memo.requests(),
                                     std::memory_order_relaxed);
            queue_builds.fetch_add(workset.memo.builds(),
                                   std::memory_order_relaxed);
            a_sides.fetch_add(workset.generatedA(),
                              std::memory_order_relaxed);
            b_tiles.fetch_add(workset.drawnBTiles(),
                              std::memory_order_relaxed);
            elements.fetch_add(workset.generatedElements(),
                               std::memory_order_relaxed);
        });

    std::vector<SweepResult> sweeps;
    sweeps.reserve(specs.size());
    std::size_t job_count = 0;
    for (std::size_t s = 0; s < specs.size(); ++s) {
        const SweepSpec &spec = specs[s];
        std::vector<NetworkResult> results(jobs[s].size());
        for (std::size_t i = 0; i < jobs[s].size(); ++i) {
            const SweepJob &job = jobs[s][i];
            results[i] = accelerators[s][job.archIndex].reduceLayers(
                spec.networks[job.networkIndex],
                spec.categories[job.categoryIndex],
                std::move(layer_results[s][i]), job.options);
        }
        job_count += jobs[s].size();
        sweeps.emplace_back(std::move(jobs[s]), std::move(results));
    }

    if (stats != nullptr) {
        // Pure observation: nothing here feeds back into a result.
        const double sweep_ns =
            static_cast<double>(monotonicNowNs() - sweep_start_ns);
        const double capacity_ns = sweep_ns * threads;
        const double busy_ns = static_cast<double>(task_stats.busyNs);
        *stats = {
            {"sweep.jobs", static_cast<double>(job_count)},
            {"sweep.wall_ms", sweep_ns / 1e6},
            {"sweep.jobs_per_sec",
             sweep_ns > 0.0 ? static_cast<double>(job_count) /
                                  (sweep_ns / 1e9)
                            : 0.0},
            {"pool.threads", static_cast<double>(threads)},
            {"pool.executed_jobs",
             static_cast<double>(task_stats.executed)},
            {"pool.steals", static_cast<double>(task_stats.steals)},
            {"pool.busy_ms", busy_ns / 1e6},
            {"pool.utilization",
             capacity_ns > 0.0 ? busy_ns / capacity_ns : 0.0},
            {"memo.queue_requests",
             static_cast<double>(queue_requests.load())},
            {"memo.queue_builds", static_cast<double>(queue_builds.load())},
            {"gen.a_sides", static_cast<double>(a_sides.load())},
            {"gen.b_tiles", static_cast<double>(b_tiles.load())},
            {"gen.elements", static_cast<double>(elements.load())},
            {"process.peak_rss_mb", peakRssMb()},
        };
    }
    return sweeps;
}

SweepResult
runSweep(const SweepSpec &spec, int threads)
{
    return std::move(runSweeps({spec}, threads).front());
}

TaskStats
runTasks(std::size_t count, int threads,
         const std::function<void(std::size_t)> &task)
{
    if (threads <= 0)
        fatal("runTasks needs at least 1 thread, got ", threads);
    const auto workers = static_cast<std::size_t>(threads);
    // claimed[w] (zero to start): how many of worker w's dealt tasks
    // (w, w + workers, ...) have been taken, by w or by a thief.  The
    // fetch_add only has to hand each task out once; join() publishes
    // the tasks' writes to the caller.
    std::vector<std::atomic<std::size_t>> claimed(workers);
    std::atomic<std::uint64_t> executed{0}, steals{0}, busy_ns{0};
    const auto work = [&](std::size_t self) {
        for (std::size_t i = 0; i < workers; ++i) {
            const std::size_t share = (self + i) % workers;
            for (;;) {
                const std::size_t index =
                    share + workers * claimed[share].fetch_add(
                                          1, std::memory_order_relaxed);
                if (index >= count)
                    break;
                const std::uint64_t start_ns = monotonicNowNs();
                task(index);
                busy_ns.fetch_add(monotonicNowNs() - start_ns,
                                  std::memory_order_relaxed);
                executed.fetch_add(1, std::memory_order_relaxed);
                if (i != 0)
                    steals.fetch_add(1, std::memory_order_relaxed);
            }
        }
    };
    std::vector<std::thread> spawned;
    spawned.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        spawned.emplace_back(work, w);
    for (auto &t : spawned)
        t.join();
    return {executed.load(), steals.load(), busy_ns.load()};
}

} // namespace griffin
