#include "runtime/runner.hh"

#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <utility>

#include "common/logging.hh"
#include "runtime/telemetry.hh"
#include "runtime/thread_pool.hh"

namespace griffin {

std::string
coordsLabel(const std::vector<AxisCoordinate> &coords)
{
    std::string out;
    for (const auto &c : coords) {
        if (!out.empty())
            out += ' ';
        out += c.axis + '=' + c.value;
    }
    return out;
}

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
runSweeps(const std::vector<SweepSpec> &specs, int threads)
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

    // Per-job wall time (--timings), flat over every spec's jobs:
    // atomics because one job's layers run in different groups, on
    // different workers.  A clock read per consumer is noise next to
    // its runLayer call, so every job is timed and only the specs that
    // asked report it.
    std::vector<std::size_t> job_base(specs.size() + 1, 0);
    for (std::size_t s = 0; s < specs.size(); ++s)
        job_base[s + 1] = job_base[s] + jobs[s].size();
    std::vector<std::atomic<std::int64_t>> job_ns(job_base.back());
    // The worksets' queue memos and generated sides, summed over
    // groups (--stats): every count follows from the plan alone.
    std::atomic<std::int64_t> queue_requests{0}, queue_builds{0};
    std::atomic<std::int64_t> a_sides{0}, b_sides{0}, elements{0};

    ThreadPool::Stats pool_stats;
    {
        // The plan goes to the pool as one batch, so every worker runs
        // its share of the groups in plan order: which worksets are
        // resident together, and so the sweep's peak RSS, follows from
        // the plan and the thread count, not from thread timing.
        std::vector<std::function<void()>> tasks;
        tasks.reserve(order.size());
        for (const auto &group : order) {
            tasks.push_back([&specs, &jobs, &accelerators, &layer_results,
                             &job_base, &job_ns, &queue_requests,
                             &queue_builds, &a_sides, &b_sides, &elements,
                             group] {
                std::uint64_t mark = monotonicNowNs();
                // Deferred: the consumers generate the sides they read.
                const LayerWorkset workset(group->first.second);
                for (const Consumer &c : group->second) {
                    const SweepSpec &spec = specs[c.spec];
                    const SweepJob &job = jobs[c.spec][c.job];
                    layer_results[c.spec][c.job][c.layer] =
                        accelerators[c.spec][job.archIndex].runLayer(
                            spec.networks[job.networkIndex], c.layer,
                            spec.categories[job.categoryIndex],
                            job.options, workset);
                    // A consumer pays for the sides it generates.
                    const std::uint64_t now = monotonicNowNs();
                    job_ns[job_base[c.spec] + c.job].fetch_add(
                        static_cast<std::int64_t>(now - mark),
                        std::memory_order_relaxed);
                    mark = now;
                }
                queue_requests.fetch_add(workset.memo.requests(),
                                         std::memory_order_relaxed);
                queue_builds.fetch_add(workset.memo.builds(),
                                       std::memory_order_relaxed);
                a_sides.fetch_add(workset.generatedA(),
                                  std::memory_order_relaxed);
                b_sides.fetch_add(workset.generatedB(),
                                  std::memory_order_relaxed);
                elements.fetch_add(static_cast<std::int64_t>(
                                       workset.a.size() + workset.b.size()),
                                   std::memory_order_relaxed);
            });
        }
        ThreadPool pool(threads);
        pool.submitAll(std::move(tasks));
        pool.wait();
        pool_stats = pool.stats();
    }

    std::vector<SweepResult> sweeps;
    sweeps.reserve(specs.size());
    std::vector<double> all_elapsed_ms;
    for (std::size_t s = 0; s < specs.size(); ++s) {
        const SweepSpec &spec = specs[s];
        std::vector<NetworkResult> results(jobs[s].size());
        std::vector<double> job_elapsed_ms;
        for (std::size_t i = 0; i < jobs[s].size(); ++i) {
            const SweepJob &job = jobs[s][i];
            results[i] = accelerators[s][job.archIndex].reduceLayers(
                spec.networks[job.networkIndex],
                spec.categories[job.categoryIndex],
                std::move(layer_results[s][i]), job.options);
            if (spec.collectTimings)
                job_elapsed_ms.push_back(
                    static_cast<double>(job_ns[job_base[s] + i].load(
                        std::memory_order_relaxed)) /
                    1e6);
        }
        all_elapsed_ms.insert(all_elapsed_ms.end(), job_elapsed_ms.begin(),
                              job_elapsed_ms.end());
        sweeps.emplace_back(std::move(jobs[s]), std::move(results),
                            std::move(job_elapsed_ms));
    }

    const std::uint64_t sweep_ns = monotonicNowNs() - sweep_start_ns;

    // Publish the run's execution profile to the process registry —
    // the one source of truth the `--stats` line reads.  Pure
    // observation: nothing below feeds back into a result.
    {
        MetricsRegistry &reg = MetricsRegistry::instance();
        const double job_count = static_cast<double>(job_base.back());
        const double wall_ms = static_cast<double>(sweep_ns) / 1e6;
        const double wall_s = static_cast<double>(sweep_ns) / 1e9;
        reg.gauge("sweep.jobs").set(job_count);
        reg.gauge("sweep.wall_ms").set(wall_ms);
        reg.gauge("sweep.jobs_per_sec")
            .set(wall_s > 0.0 ? job_count / wall_s : 0.0);
        reg.gauge("pool.threads").set(static_cast<double>(threads));
        reg.gauge("pool.executed_jobs")
            .set(static_cast<double>(pool_stats.executed));
        reg.gauge("pool.steals")
            .set(static_cast<double>(pool_stats.steals));
        reg.gauge("pool.busy_ms")
            .set(static_cast<double>(pool_stats.busyNs) / 1e6);
        const double capacity_ns =
            static_cast<double>(sweep_ns) * threads;
        reg.gauge("pool.utilization")
            .set(capacity_ns > 0.0
                     ? static_cast<double>(pool_stats.busyNs) /
                           capacity_ns
                     : 0.0);
        reg.gauge("memo.queue_requests")
            .set(static_cast<double>(queue_requests.load()));
        reg.gauge("memo.queue_builds")
            .set(static_cast<double>(queue_builds.load()));
        reg.gauge("gen.a_sides").set(static_cast<double>(a_sides.load()));
        reg.gauge("gen.b_sides").set(static_cast<double>(b_sides.load()));
        reg.gauge("gen.elements")
            .set(static_cast<double>(elements.load()));
        reg.gauge("process.peak_rss_mb").set(peakRssMb());
        if (!all_elapsed_ms.empty()) {
            Histogram &h = reg.histogram("pool.job_us");
            for (const double ms : all_elapsed_ms)
                h.record(static_cast<std::uint64_t>(ms * 1e3));
        }
    }

    return sweeps;
}

SweepResult
runSweep(const SweepSpec &spec, int threads)
{
    return std::move(runSweeps({spec}, threads).front());
}

} // namespace griffin
