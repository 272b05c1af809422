#include "griffin/accelerator.hh"

#include <algorithm>
#include <cmath>

#include "arch/overhead.hh"
#include "baselines/sparten.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "power/cost_model.hh"
#include "runtime/telemetry.hh"

namespace griffin {

Accelerator::Accelerator(ArchConfig config) : config_(std::move(config))
{
    config_.validate();
}

namespace {

/** Round up to a multiple of the row-tile height. */
std::int64_t
roundUpTo(std::int64_t v, int quantum)
{
    return (v + quantum - 1) / quantum * quantum;
}

/** Whole-layer DRAM bytes (all groups and repeats). */
std::int64_t
layerDramBytes(const LayerSpec &layer, const RoutingConfig &routing,
               const TileShape &shape, double wsp, bool mac_grid)
{
    const auto per_group_a = layer.m * layer.k;
    const auto per_group_c = layer.m * layer.n;
    std::int64_t per_group_b = layer.k * layer.n;
    const auto nnz_b = static_cast<std::int64_t>(
        std::llround((1.0 - wsp) * static_cast<double>(per_group_b)));
    if (mac_grid) {
        if (routing.sparseB())
            per_group_b = nnz_b + (per_group_b + 7) / 8;
    } else if (routing.preprocessB) {
        const auto hw = computeOverhead(routing, shape);
        per_group_b = nnz_b + (nnz_b * hw.metadataBits + 7) / 8;
    }
    return (per_group_a + per_group_b + per_group_c) * layer.groups *
           layer.repeat;
}

} // namespace

WorksetParams
Accelerator::layerWorksetParams(const NetworkSpec &net,
                                std::size_t layerIndex, DnnCategory cat,
                                const RunOptions &opt) const
{
    if (opt.rowCap <= 0)
        fatal("rowCap must be positive, got ", opt.rowCap);
    net.validateLayer(layerIndex);

    const LayerSpec &layer = net.layer(layerIndex);

    WorksetParams params;
    // Simulate a statistically-equivalent row slice of one group.
    params.m = std::min(layer.m, roundUpTo(std::min(layer.m, opt.rowCap),
                                           config_.tile.m0));
    params.k = layer.k;
    params.n = layer.n;
    params.weightSparsity = net.layerWeightSparsity(layer, cat);
    params.actSparsity = net.layerActSparsity(layer, cat);
    params.weightLaneBias = opt.weightLaneBias;
    params.actRunLength = std::max(1.0, opt.actRunLength);
    // The layer stream is derived from (seed, network name, layer
    // index) alone — mixSeed, not std::hash, so it is order-independent
    // (any layer can be simulated without simulating its predecessors)
    // and stable across platforms.
    params.seed =
        Rng::mixSeed(Rng::mixSeed(opt.seed, net.name), layerIndex);
    return params;
}

LayerResult
Accelerator::runLayer(const NetworkSpec &net, std::size_t layerIndex,
                      DnnCategory cat, const RunOptions &opt) const
{
    // Stage 1 is deferred: the staged simulation generates the sides
    // this architecture reads.
    return runLayer(net, layerIndex, cat, opt,
                    LayerWorkset(layerWorksetParams(net, layerIndex, cat,
                                                    opt)));
}

LayerResult
Accelerator::runLayer(const NetworkSpec &net, std::size_t layerIndex,
                      DnnCategory cat, const RunOptions &opt,
                      const LayerWorkset &workset) const
{
    net.validateLayer(layerIndex);

    const LayerSpec &layer = net.layer(layerIndex);
    const TileShape &shape = config_.tile;
    const double wsp = net.layerWeightSparsity(layer, cat);

    const std::int64_t m_sim = workset.params().m;
    const auto row_tiles_full = (layer.m + shape.m0 - 1) / shape.m0;
    const auto row_tiles_sim = (m_sim + shape.m0 - 1) / shape.m0;
    const double row_scale = static_cast<double>(row_tiles_full) /
                             static_cast<double>(row_tiles_sim);

    // Stages 2–3: tiling, per-side schedules, and cycle simulation of
    // the row slice on this architecture.
    SimOptions sim_opt = opt.sim;
    sim_opt.seed = workset.simSeed;
    const bool mac_grid = config_.style == DatapathStyle::MacGrid;
    // Each simulator generates what it reads from the workset.
    const auto sim = mac_grid ? simulateSparTen(workset, config_, cat)
                              : simulateGemm(workset, config_, cat, sim_opt);

    LayerResult lr;
    lr.name = layer.name;
    lr.macs = layer.macs();
    lr.denseCycles = layer.denseCycles(shape);
    lr.computeCycles = static_cast<std::int64_t>(std::llround(
        static_cast<double>(sim.computeCycles) * row_scale *
        static_cast<double>(layer.groups) *
        static_cast<double>(layer.repeat)));
    const auto dram_bytes = layerDramBytes(
        layer, config_.effectiveRouting(cat), shape, wsp, mac_grid);
    lr.dramCycles = static_cast<std::int64_t>(
        std::ceil(static_cast<double>(dram_bytes) /
                  config_.mem.dramBytesPerCycle()));
    lr.totalCycles = opt.enforceDramBound
                         ? std::max(lr.computeCycles, lr.dramCycles)
                         : lr.computeCycles;
    lr.speedup = lr.totalCycles > 0
                     ? static_cast<double>(lr.denseCycles) /
                           static_cast<double>(lr.totalCycles)
                     : 1.0;
    return lr;
}

NetworkResult
Accelerator::reduceLayers(const NetworkSpec &net, DnnCategory cat,
                          std::vector<LayerResult> layers,
                          const RunOptions &opt) const
{
    if (layers.size() != net.layerCount())
        fatal("reduceLayers got ", layers.size(), " layer results for ",
              net.name, " (", net.layerCount(), " layers)");

    ScopedSpan span("reduce");
    NetworkResult result;
    result.network = net.name;
    result.arch = config_.name;
    result.category = cat;
    for (const auto &lr : layers) {
        result.denseCycles += lr.denseCycles;
        result.totalCycles += lr.totalCycles;
    }
    result.layers = std::move(layers);

    // Schedule-derived accounting is opt-in: the default (declaration
    // policy, no budget) takes the legacy path exactly, leaving
    // scheduleLabel empty so result serialization is byte-identical.
    const bool scheduled =
        opt.schedulePolicy != SchedulePolicy::Declaration ||
        opt.sramBudgetBytes > 0;
    if (scheduled) {
        ScopedSpan schedule_span("schedule");
        const DagSchedule schedule =
            scheduleFor(net, opt.schedulePolicy);
        result.scheduleLabel = schedule.label;
        result.peakSramBytes = schedule.peakBytes;
        for (std::size_t p = 0; p < schedule.entries.size(); ++p) {
            const ScheduleEntry &entry = schedule.entries[p];
            if (entry.recompute)
                result.recomputeCycles +=
                    result.layers[entry.node].totalCycles;
            if (opt.sramBudgetBytes > 0) {
                const std::int64_t over =
                    schedule.entryLiveBytes[p] - opt.sramBudgetBytes;
                if (over > 0) {
                    // Round trip: spilled bytes go out and come back.
                    result.spillCycles += static_cast<std::int64_t>(
                        std::ceil(2.0 * static_cast<double>(over) /
                                  config_.mem.dramBytesPerCycle()));
                }
            }
        }
        result.totalCycles +=
            result.recomputeCycles + result.spillCycles;
    }

    result.speedup = result.totalCycles > 0
                         ? static_cast<double>(result.denseCycles) /
                               static_cast<double>(result.totalCycles)
                         : 1.0;
    result.topsPerWatt =
        effectiveTopsPerWatt(config_, cat, result.speedup);
    result.topsPerMm2 =
        effectiveTopsPerMm2(config_, cat, result.speedup);
    return result;
}

NetworkResult
Accelerator::run(const NetworkSpec &net, DnnCategory cat,
                 const RunOptions &opt) const
{
    // Validate here too: a zero-layer network never reaches runLayer's
    // own check (the loop body never runs).
    net.validate();
    std::vector<LayerResult> layers;
    layers.reserve(net.layerCount());
    for (std::size_t l = 0; l < net.layerCount(); ++l)
        layers.push_back(runLayer(net, l, cat, opt));
    return reduceLayers(net, cat, std::move(layers), opt);
}

double
geomeanSpeedup(const std::vector<NetworkResult> &results)
{
    if (results.empty()) {
        warn("geomeanSpeedup over no results; returning 1.0");
        return 1.0;
    }
    std::vector<double> speedups;
    speedups.reserve(results.size());
    for (const auto &r : results) {
        // A degenerate run (all-zero cycles) can report a non-positive
        // speedup; the geometric mean is undefined over those, so skip
        // them rather than poisoning the aggregate.
        if (r.speedup <= 0.0) {
            warn("geomeanSpeedup skipping non-positive speedup ",
                 r.speedup, " of ", r.network, " on ", r.arch);
            continue;
        }
        speedups.push_back(r.speedup);
    }
    if (speedups.empty())
        return 1.0;
    return geomean(speedups);
}

} // namespace griffin
