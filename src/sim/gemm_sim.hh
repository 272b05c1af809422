/**
 * @file
 * Cycle-level simulation of one GEMM on a vector-core architecture.
 * It consumes the operands of stage 1 (tensor/workset.hh) and runs the
 * two later stages of the pipeline.  A GEMM is planned before any
 * operand is read: its geometry, routing and sampled tiles.  Over a
 * workset it then reads only what its sampled tiles need on the sides
 * its mode skips zeros on (Dense nothing, Sparse.A A, Sparse.B B's
 * sampled column tiles, dual A and the column tiles of its sampled
 * pairs) and takes m, k and n from the workset's parameters, so B is
 * drawn only where a sampled tile reads it, and a side no mode reads
 * is never generated.  The stages:
 *
 *   2. *Tiling + per-side schedule computation*: each sampled tile
 *      side's slot queues come from the workset's QueueMemo
 *      (sched/window_scheduler.hh), built by the first design point
 *      that asks and read by the rest.  Column tiles of B then
 *      preprocess into compressed streams and row tiles of A run the
 *      arbiter scheduler.  Those depend on the borrow window, so they
 *      are recomputed per GEMM: packing a stream from its queues is
 *      cheaper than hashing the tile to look a stored one up.
 *
 *   3. *Tile(-pair) cycle simulation + reduction*: the sampled tiles
 *      replay their schedules and sampled sums scale back to the full
 *      grid.  Window advance is capped by the provisioned SRAM
 *      bandwidth (ArchConfig::effectiveBwScale), the paper's "SRAM BW
 *      must scale with speedup" constraint.
 *
 * The result is datapath (compute) cycles only.  DRAM traffic is
 * priced once per layer, by Accelerator::runLayer
 * (griffin/accelerator.hh).
 *
 * Schedule reuse within one GEMM mirrors the hardware:
 *
 *   - Sparse.B schedules are computed once per column tile and reused
 *     by every row tile (they are independent of A's values).
 *   - Sparse.A schedules are computed once per row tile and reused by
 *     every column tile.
 *   - Dual schedules are per tile pair; deterministic sampling keeps
 *     large layers tractable (sim/sampling.hh).  A row tile's A
 *     queues serve every pair it is in.
 *
 * MacGrid architectures (SparTen) have their own simulator in
 * src/baselines; this one panics on them.
 */

#ifndef GRIFFIN_SIM_GEMM_SIM_HH
#define GRIFFIN_SIM_GEMM_SIM_HH

#include <cstdint>

#include "arch/arch_config.hh"
#include "sched/schedule.hh"
#include "tensor/matrix.hh"

namespace griffin {

struct LayerWorkset;

/** Simulation knobs. */
struct SimOptions
{
    /**
     * Fraction of tiles (or tile pairs, for dual sparsity) to
     * simulate; results are scaled back to the full grid.  1.0 = every
     * tile.
     */
    double sampleFraction = 1.0;

    /** Minimum tiles to simulate regardless of the fraction. */
    std::int64_t minSampledTiles = 8;

    /** Seed for the sampling phase (not for data generation). */
    std::uint64_t seed = 1;
};

/** Result of simulating one GEMM. */
struct GemmSimResult
{
    std::int64_t denseCycles = 0;   ///< dense-baseline cycles
    std::int64_t computeCycles = 0; ///< datapath cycles on this arch
    std::int64_t denseOps = 0;      ///< M*K*N MACs
    /** MACs the SparTen grid executes (simulateSparTen only; 0 from
     *  simulateGemm, see countEffectualOps in tensor/workset.hh). */
    std::int64_t effectualOps = 0;
    ScheduleStats sched;            ///< summed over simulated tiles
                                    ///< (unscaled)
    std::int64_t simulatedTiles = 0;
    std::int64_t totalTiles = 0;

    /** Normalized speedup over the dense baseline. */
    double
    speedup() const
    {
        return computeCycles > 0 ? static_cast<double>(denseCycles) /
                                       static_cast<double>(computeCycles)
                                 : 1.0;
    }
};

/**
 * Simulate C = A x B on `arch` running in workload category `cat` (the
 * category selects Griffin's morph and the bandwidth provisioning;
 * non-hybrid architectures use their fixed routing).
 */
GemmSimResult simulateGemm(const MatrixI8 &a, const MatrixI8 &b,
                           const ArchConfig &arch, DnnCategory cat,
                           const SimOptions &opt = {});

/**
 * simulateGemm over a workset's operands, with the sampled tiles'
 * queues taken from (and added to) ws.memo, so every consumer of the
 * workset builds each one at most once.  Before the `tile_sim` span
 * opens it generates A whole when the mode reads A (`gen_a`), and asks
 * the workset for B's sampled column tiles when the mode reads B
 * (LayerWorkset::bTiles: the missing ones drawn in one `gen_b` span,
 * or views of B once it is whole).  The result equals the two-matrix
 * form's on the workset's whole matrices, whatever the memo and the
 * drawn tiles held before.
 */
GemmSimResult simulateGemm(const LayerWorkset &ws, const ArchConfig &arch,
                           DnnCategory cat, const SimOptions &opt = {});

} // namespace griffin

#endif // GRIFFIN_SIM_GEMM_SIM_HH
