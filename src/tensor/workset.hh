/**
 * @file
 * Stage 1 of the staged simulation pipeline: operand generation.
 *
 * One layer's simulation consumes a *workset* — the synthetic A
 * (activation) and B (weight) matrices generated at the layer's
 * sparsity ratios, plus the derived seed of the tile-sampling phase.
 * Generation computes no statistics of the matrices, because no later
 * stage reads one; countEffectualOps is here for callers that want
 * the count.  The workset is a pure function of WorksetParams: along
 * the architecture axis of any sweep grid, every design point with the
 * same tile height replays *bit-identical* operand generation, which
 * is why the sweep runner (runtime/runner.hh) groups a sweep's layers
 * by WorksetParams and generates each distinct workset once for all of
 * its consumers.  The consumers then share more than the operands:
 * the slot queues of a sampled tile side depend only on the operands,
 * the tile and the shuffle, not on the borrow window a design point
 * varies, so the workset carries a QueueMemo
 * (sched/window_scheduler.hh).  The first consumer that asks for a
 * tile's queues builds them and the rest of the group reads them;
 * they go when the workset does.
 *
 * Convolution layers are already lowered to GEMM shapes by the
 * workload tables (tensor/im2col.hh does the lowering; workloads/
 * stores the resulting m/k/n), so generation works directly in GEMM
 * coordinates — the im2col output *is* the A matrix being modelled.
 */

#ifndef GRIFFIN_TENSOR_WORKSET_HH
#define GRIFFIN_TENSOR_WORKSET_HH

#include <cstdint>
#include <tuple>

#include "sched/window_scheduler.hh"
#include "tensor/matrix.hh"

namespace griffin {

/**
 * The complete input domain of layer operand generation.  Two equal
 * parameter records generate bit-identical worksets on any platform;
 * the sweep runner groups work by exactly these fields.
 */
struct WorksetParams
{
    std::int64_t m = 0; ///< simulated A rows (row-cap applied)
    std::int64_t k = 0; ///< GEMM depth
    std::int64_t n = 0; ///< B columns
    double weightSparsity = 0.0;
    double actSparsity = 0.0;
    /** Lane-imbalance depth of the weight mask (sparsity.hh). */
    double weightLaneBias = 0.0;
    /** Effective mean zero-run length (already clamped to >= 1, so
     *  equivalent inputs share one workset). */
    double actRunLength = 1.0;
    /** Modulation period of laneBiasedSparse (crossbar granularity). */
    int lanePeriod = 4;
    /** Layer stream seed: mixSeed(mixSeed(run seed, net name), layer). */
    std::uint64_t seed = 0;

    /** Every field, in one place for equality and ordering. */
    auto
    fields() const
    {
        return std::tie(m, k, n, weightSparsity, actSparsity,
                        weightLaneBias, actRunLength, lanePeriod, seed);
    }

    bool
    operator==(const WorksetParams &o) const
    {
        return fields() == o.fields();
    }
    bool operator!=(const WorksetParams &o) const { return !(*this == o); }
    /** Field-wise order, so records can key an ordered map. */
    bool
    operator<(const WorksetParams &o) const
    {
        return fields() < o.fields();
    }
};

/** The stage-1 artifact: the generated operands. */
struct LayerWorkset
{
    MatrixI8 a; ///< activations, m x k
    MatrixI8 b; ///< weights, k x n
    /** Seed of the tile-sampling phase (forked from the generation
     *  stream, so it is part of the workset, not of the simulation). */
    std::uint64_t simSeed = 0;
    /**
     * Queues of the tiles the consumers sampled, over a and b
     * (simulateGemm fills it).  Not part of the workset's value, so
     * consumers that hold the workset const fill it too; like the
     * memo, a workset serves one thread at a time.
     */
    mutable QueueMemo memo;
};

/** Count MACs where both operands are nonzero, in O(MK + KN). */
std::int64_t countEffectualOps(const MatrixI8 &a, const MatrixI8 &b);

/**
 * Generate the workset for one parameter record: clustered-sparse
 * activations, lane-biased weights, then the forked sampling seed —
 * the exact stream Accelerator::runLayer historically drew inline, so
 * pipelined and monolithic runs are bit-identical.  Recorded as the
 * `operand_gen` telemetry span.
 */
LayerWorkset generateLayerWorkset(const WorksetParams &params);

} // namespace griffin

#endif // GRIFFIN_TENSOR_WORKSET_HH
