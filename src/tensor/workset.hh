/**
 * @file
 * Stage 1 of the staged simulation pipeline: operand generation.
 *
 * One layer's simulation consumes a *workset* — the synthetic A
 * (activation) and B (weight) matrices generated at the layer's
 * sparsity ratios, plus the seed of the tile-sampling phase.  The
 * layer seed forks into three independent streams,
 * Rng::mixSeed(seed, side), one each for A, B and the sampling
 * phase, so each side is a pure function of WorksetParams on its own
 * and the workset generates a side only when a consumer first reads
 * it (operandA() / operandB(), the `gen_a` and `gen_b` spans).  A
 * consumer reads the sides its routing skips zeros on: a Sparse.A
 * design point never generates B, a Sparse.B one never generates A,
 * a dense one neither, and the dual and SparTen engines both.
 * generateLayerWorkset is the same workset with both sides read.
 * Within a side, generation is counter-based (tensor/sparsity.hh):
 * each B element and each A row is a pure function of the side's
 * seed and its indices.
 *
 * Generation computes no statistics of the matrices, because no later
 * stage reads one; countEffectualOps is here for callers that want
 * the count.  Along the architecture axis of any sweep grid, every
 * design point with the same tile height shares one WorksetParams,
 * which is why the sweep runner (runtime/runner.hh) groups a sweep's
 * layers by WorksetParams and hands one deferred workset to all of
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

/**
 * The stage-1 artifact: the operands of one parameter record, each
 * side generated the first time a consumer reads it.  `a` and `b`
 * stay empty until operandA() / operandB() fill them; simSeed is set
 * at construction.  Reading a side changes none of the workset's
 * values, so consumers that hold it const fill the sides and the
 * queue memo too; a workset serves one thread at a time, and the
 * lazily filled fields take no lock.
 */
struct LayerWorkset
{
    /** A workset of `params` with neither side generated yet. */
    explicit LayerWorkset(const WorksetParams &params);

    /** Activations (m x k, clustered zero runs); generated on the
     *  first call, as the `gen_a` span. */
    const MatrixI8 &operandA() const;
    /** Weights (k x n, lane-biased zeros); generated on the first
     *  call, as the `gen_b` span. */
    const MatrixI8 &operandB() const;

    const WorksetParams &params() const { return params_; }
    /** Whether operandA() / operandB() has generated that side. */
    bool generatedA() const { return generatedA_; }
    bool generatedB() const { return generatedB_; }

    mutable MatrixI8 a; ///< activations once generated, else empty
    mutable MatrixI8 b; ///< weights once generated, else empty
    /** Seed of the tile-sampling phase, drawn from its own stream. */
    std::uint64_t simSeed = 0;
    /**
     * Queues of the tiles the consumers sampled, over a and b
     * (simulateGemm fills it).  Not part of the workset's value.
     */
    mutable QueueMemo memo;

  private:
    WorksetParams params_;
    mutable bool generatedA_ = false;
    mutable bool generatedB_ = false;
};

/** Count MACs where both operands are nonzero, in O(MK + KN). */
std::int64_t countEffectualOps(const MatrixI8 &a, const MatrixI8 &b);

/**
 * The workset for one parameter record with both sides generated:
 * LayerWorkset(params) after operandA() and operandB().
 */
LayerWorkset generateLayerWorkset(const WorksetParams &params);

} // namespace griffin

#endif // GRIFFIN_TENSOR_WORKSET_HH
