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
 * and the workset generates only what its consumers read, when they
 * first read it (the `gen_a` and `gen_b` spans):
 *
 *   - A whole, through operandA(): the Sparse.A and dual engines, and
 *     SparTen when it skips A's zeros.  With the row cap every row
 *     tile of A is sampled, so A has no tile form.
 *   - B's sampled column tiles, through bTiles(): the Sparse.B and
 *     dual engines.  Within a side, generation is counter-based
 *     (tensor/sparsity.hh): each B element is a pure function of the
 *     side's seed and its indices, so a column range drawn on its own
 *     (bColumns, laneBiasedColumns) equals those columns of the whole
 *     matrix byte for byte.  A tile is drawn once and serves every
 *     later consumer, shuffle on or off.
 *   - B's column masks over k, 64 columns at a time and not kept,
 *     through bColumnMasks(): SparTen, which reads only B's nonzero
 *     pattern (baselines/sparten.hh).  They come from the generator's
 *     keep tests alone (laneBiasedColumnMasks), so no value of B and
 *     no int8 matrix is made for them.
 *
 * So B is never whole in a deferred workset: a Sparse.A design point
 * never generates B, a Sparse.B one never A, and a dense one neither.
 * generateLayerWorkset is the same workset with both sides whole, for
 * callers that read the matrices themselves.
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
 * workload tables (workloads/net_util.hh's netutil::conv stores each
 * layer's m/k/n), so generation works directly in GEMM coordinates —
 * the im2col output *is* the A matrix being modelled.
 */

#ifndef GRIFFIN_TENSOR_WORKSET_HH
#define GRIFFIN_TENSOR_WORKSET_HH

#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "sched/window_scheduler.hh"
#include "tensor/matrix.hh"
#include "tensor/tile.hh"

namespace griffin {

/**
 * Modulation period of the weights' lane profile (laneBiasedSparse):
 * the crossbar granularity, the same for every layer and design point.
 */
constexpr int weightLanePeriod = 4;

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
    /** Layer stream seed: mixSeed(mixSeed(run seed, net name), layer). */
    std::uint64_t seed = 0;

    /** Every field, in one place for equality and ordering. */
    auto
    fields() const
    {
        return std::tie(m, k, n, weightSparsity, actSparsity,
                        weightLaneBias, actRunLength, seed);
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
 * generated the first time a consumer reads it.  `a` stays empty until
 * operandA() fills it, and `b` until generateLayerWorkset does;
 * simSeed is set at construction.  Reading an operand changes none of
 * the workset's values, so consumers that hold it const fill A, the
 * drawn column tiles and the queue memo too; a workset serves one
 * thread at a time, and the lazily filled fields take no lock.
 */
struct LayerWorkset
{
    /** A workset of `params` with nothing generated yet. */
    explicit LayerWorkset(const WorksetParams &params);

    /** Activations (m x k, clustered zero runs); generated on the
     *  first call, as the `gen_a` span. */
    const MatrixI8 &operandA() const;

    /**
     * B's columns [first, first + width) (k x width, lane-biased
     * zeros), drawn now and not kept; the caller opens the `gen_b`
     * span.  They count in generatedElements().
     */
    MatrixI8 bColumns(std::int64_t first, std::int64_t width) const;

    /**
     * The nonzero masks over k of bColumns(first, width), width 1..64,
     * drawn now and not kept (laneBiasedColumnMasks): bit i of
     * out[c * words + w] is set iff B's element (w * 64 + i, first + c)
     * is nonzero, and words * 64 >= k.  Its k * width elements count in
     * generatedElements(), as bColumns' do; the caller opens the
     * `gen_b` span.
     */
    void bColumnMasks(std::int64_t first, int width, std::int64_t words,
                      std::uint64_t *out) const;

    /**
     * Views of B's column tiles `cols` under `shape`, in the order
     * given: tile j holds B's columns [j * n0, (j + 1) * n0), those
     * past n reading as zero.  Each tile not drawn before is drawn
     * now, all of them in one `gen_b` span (none when every tile is
     * there), and kept until the workset goes.  The views stay valid
     * as long as the workset.
     */
    std::vector<TileViewB> bTiles(const std::vector<std::int64_t> &cols,
                                  const TileShape &shape) const;

    const WorksetParams &params() const { return params_; }
    /** Whether operandA() has generated A. */
    bool generatedA() const { return generatedA_; }
    /** Column tiles bTiles() has drawn. */
    std::int64_t
    drawnBTiles() const
    {
        return static_cast<std::int64_t>(bTiles_.size());
    }
    /** Elements generated: A and every column of B drawn, kept or not. */
    std::int64_t
    generatedElements() const
    {
        return static_cast<std::int64_t>(a.size()) + drawnB_;
    }

    mutable MatrixI8 a; ///< activations once generated, else empty
    /** Weights, whole: generateLayerWorkset's alone, else empty
     *  (mutable like `a`, so a const workset's &a and &b share a type). */
    mutable MatrixI8 b;
    /** Seed of the tile-sampling phase, drawn from its own stream. */
    std::uint64_t simSeed = 0;
    /**
     * Queues of the tiles the consumers sampled, over a and B's tiles
     * (simulateGemm fills it).  Not part of the workset's value.
     */
    mutable QueueMemo memo;

  private:
    WorksetParams params_;
    mutable bool generatedA_ = false;
    /** Elements bColumns() and bColumnMasks() have drawn. */
    mutable std::int64_t drawnB_ = 0;
    /** Drawn column tiles of B by (first column, width): k x width. */
    mutable std::map<std::pair<std::int64_t, std::int64_t>, MatrixI8>
        bTiles_;
};

/** Count MACs where both operands are nonzero, in O(MK + KN). */
std::int64_t countEffectualOps(const MatrixI8 &a, const MatrixI8 &b);

/**
 * The workset for one parameter record with both sides generated
 * whole: LayerWorkset(params) after operandA(), with `b` set to
 * bColumns(0, n).
 */
LayerWorkset generateLayerWorkset(const WorksetParams &params);

} // namespace griffin

#endif // GRIFFIN_TENSOR_WORKSET_HH
