/**
 * @file
 * The library's top-level API: run a benchmark network on an
 * architecture and get latency, speedup, and effective efficiency.
 *
 * This is the layer a downstream user touches:
 *
 *   Accelerator acc(griffinArch());
 *   auto result = acc.run(resNet50(), DnnCategory::AB);
 *   std::cout << result.speedup << " x, "
 *             << result.topsPerWatt << " TOPS/W\n";
 *
 * Per layer, synthetic operand tensors are generated at the network's
 * published sparsity ratios (weights with the lane-biased structure of
 * real pruned models, activations with ReLU-like zero runs), the GEMM
 * is simulated cycle-level on the architecture (vector core or
 * SparTen-style MAC grid), and DRAM streaming is overlapped per layer.
 * Large layers are simulated on a statistically-equivalent row slice,
 * and runLayer scales its cycles linearly to the whole layer (README,
 * "The staged simulation pipeline").
 */

#ifndef GRIFFIN_GRIFFIN_ACCELERATOR_HH
#define GRIFFIN_GRIFFIN_ACCELERATOR_HH

#include <cstddef>
#include <string>
#include <vector>

#include "arch/arch_config.hh"
#include "sched/dag_schedule.hh"
#include "sim/gemm_sim.hh"
#include "tensor/workset.hh"
#include "workloads/network.hh"

namespace griffin {

/** Knobs for an end-to-end network run. */
struct RunOptions
{
    SimOptions sim{};          ///< tile sampling etc.
    std::int64_t rowCap = 256; ///< max A rows simulated per layer
    std::uint64_t seed = 1;    ///< tensor-generation seed
    /** Lane-imbalance depth of synthetic weight masks (see
     *  tensor/sparsity.hh: laneBiasedSparse). */
    double weightLaneBias = 0.5;
    /** Mean zero-run length of synthetic activation maps.  Mild by
     *  default: im2col interleaves channels into k, which breaks up
     *  the spatial clustering of ReLU zeros. */
    double actRunLength = 2.0;

    /**
     * When true, a layer's latency is max(compute, DRAM streaming).
     * The paper dimensions DRAM so it never throttles ("50GB/s ...
     * enough to avoid any performance drop", Section V), so the
     * default only *reports* DRAM time; enable this to study
     * memory-bound regimes (uncompressed weights can dominate
     * fully-connected layers).
     */
    bool enforceDramBound = false;

    /**
     * Layer execution order over the network DAG
     * (sched/dag_schedule.hh).  Declaration order is the historical
     * behaviour; the optimized policies reorder execution to minimise
     * peak on-chip buffer bytes.  Per-layer cycle results are
     * schedule-independent (each layer's seed depends only on its node
     * index), so the policy affects only the schedule-derived fields
     * of NetworkResult.
     */
    SchedulePolicy schedulePolicy = SchedulePolicy::Declaration;

    /**
     * On-chip buffer budget in bytes for the spill model.  When
     * positive, every schedule step whose live bytes exceed the budget
     * pays DRAM round-trip cycles for the excess
     * (2 * excess / dramBytesPerCycle), added to the network total.
     * Zero (the default) disables spill accounting entirely.
     */
    std::int64_t sramBudgetBytes = 0;
};

/** Per-layer outcome (cycles are whole-layer, scaled). */
// griffin-lint: serialized (JSONL result rows)
struct LayerResult
{
    std::string name;
    std::int64_t denseCycles = 0;
    std::int64_t computeCycles = 0;
    std::int64_t dramCycles = 0;
    std::int64_t totalCycles = 0;
    std::int64_t macs = 0;
    double speedup = 1.0;
};

/** Whole-network outcome. */
// griffin-lint: serialized (JSONL result rows)
struct NetworkResult
{
    std::string network;
    std::string arch;
    DnnCategory category = DnnCategory::Dense;
    std::int64_t denseCycles = 0;
    std::int64_t totalCycles = 0;
    double speedup = 1.0;
    double topsPerWatt = 0.0;  ///< effective, Definition V.1
    double topsPerMm2 = 0.0;   ///< effective, Definition V.1
    std::vector<LayerResult> layers;

    /**
     * Schedule-derived fields, populated only when the run used a
     * non-declaration policy or a positive SRAM budget (scheduleLabel
     * empty otherwise, and none of them serialized — the opt-in keeps
     * default-run artifacts byte-identical).
     */
    std::string scheduleLabel;
    std::int64_t peakSramBytes = 0;  ///< peak live buffer bytes
    std::int64_t spillCycles = 0;    ///< DRAM round-trips over budget
    std::int64_t recomputeCycles = 0; ///< re-executed cheap layers
};

/**
 * An architecture instance ready to run workloads.
 */
class Accelerator
{
  public:
    explicit Accelerator(ArchConfig config);

    const ArchConfig &config() const { return config_; }

    /**
     * Run one network in a workload category.  run() is const and
     * keeps no per-call state, so concurrent calls on one Accelerator
     * are safe (the runtime/ subsystem relies on this).
     */
    NetworkResult run(const NetworkSpec &net, DnnCategory cat,
                      const RunOptions &opt = {}) const;

    /**
     * Simulate one layer of a network.  Every layer's randomness is
     * derived as mixSeed(mixSeed(opt.seed, net.name), layerIndex) —
     * independent of which layers ran before it — so a network result
     * assembled from per-layer calls in *any* order (or from any
     * thread) is bit-identical to run().  runtime/ sweeps fan out over
     * the same per-layer split, through the workset overload below.
     * Both overloads check only the layer they run
     * (NetworkSpec::validateLayer); run() and the sweep runner check
     * the whole network once, before any layer.
     */
    LayerResult runLayer(const NetworkSpec &net, std::size_t layerIndex,
                         DnnCategory cat,
                         const RunOptions &opt = {}) const;

    /**
     * Stage-1 parameters of one layer's simulation: the complete input
     * domain of operand generation — the row-capped slice height, the
     * category-resolved sparsity rates, the generation knobs, and the
     * layer stream seed.  Equal records generate bit-identical
     * worksets; the sweep runner groups work by exactly this.
     */
    WorksetParams layerWorksetParams(const NetworkSpec &net,
                                     std::size_t layerIndex,
                                     DnnCategory cat,
                                     const RunOptions &opt = {}) const;

    /**
     * Stages 2–3 over a prepared workset: simulate the layer's GEMM on
     * this architecture, scale the row slice's compute cycles back to
     * the whole layer, and price the whole layer's DRAM traffic (the
     * library's one memory model; RunOptions::enforceDramBound).
     * `workset` must have been made from
     * layerWorksetParams(net, layerIndex, cat, opt) — runLayer() is
     * exactly this composition with a deferred LayerWorkset in front,
     * and a sweep hands one workset to every consumer that shares its
     * parameters.  The call generates what this architecture reads
     * that no earlier consumer generated: SparTen both sides whole,
     * simulateGemm A whole and B's sampled column tiles on the sides
     * its mode skips zeros on.  The consumers share the workset's
     * operands and tile queues (LayerWorkset::memo), so one thread at
     * a time runs layers over a given workset.
     */
    LayerResult runLayer(const NetworkSpec &net, std::size_t layerIndex,
                         DnnCategory cat, const RunOptions &opt,
                         const LayerWorkset &workset) const;

    /**
     * Whether runLayer reads every column of B (SparTen's MAC grid
     * does; a vector core reads its sampled column tiles).  A runner
     * with such a consumer in a group generates B whole first, so the
     * group's vector cores view it rather than draw their tiles again.
     */
    bool
    readsWholeB() const
    {
        return config_.style == DatapathStyle::MacGrid;
    }

    /**
     * Deterministic reduce step: assemble per-layer outcomes (in node
     * order, one per net node) into the NetworkResult run() would have
     * produced.  run(net, cat, opt) is exactly
     * reduceLayers(net, cat, {runLayer(net, 0..L-1, cat, opt)}, opt).
     * It also prices the layer-execution schedule opt.schedulePolicy
     * selects (peak live bytes, spill cycles against
     * opt.sramBudgetBytes, recompute cycles) and folds the overhead
     * cycles into the network totals; a declaration policy with no
     * budget adds none.
     */
    NetworkResult reduceLayers(const NetworkSpec &net, DnnCategory cat,
                               std::vector<LayerResult> layers,
                               const RunOptions &opt) const;

  private:
    ArchConfig config_;
};

/** Geometric-mean speedup of a set of results. */
double geomeanSpeedup(const std::vector<NetworkResult> &results);

} // namespace griffin

#endif // GRIFFIN_GRIFFIN_ACCELERATOR_HH
