/**
 * @file
 * Cycle-level simulation of one GEMM on a vector-core architecture,
 * structured as a staged pipeline with first-class intermediate
 * artifacts:
 *
 *   1. *Operand statistics* (GemmOperands): the A/B matrices plus the
 *      content statistics the later stages consume — effectual MACs
 *      and B nonzeros.  When the operands come from a LayerWorkset
 *      (tensor/workset.hh) the statistics were computed once at
 *      generation time and are reused verbatim; makeGemmOperands()
 *      computes them for free-standing matrices.
 *
 *   2. *Tiling + per-side schedule computation*: column tiles of B
 *      preprocess into compressed streams, row tiles of A run the
 *      arbiter scheduler.  Both are recomputed per GEMM: after the
 *      SIMD occupancy kernels, packing a stream is cheaper than
 *      hashing the tile to look a stored one up.
 *
 *   3. *Tile(-pair) cycle simulation + reduction*: the sampled tiles
 *      replay their schedules, sampled sums scale back to the full
 *      grid, and the memory model folds in DRAM streaming — A and C
 *      stream dense, B dense or compressed + metadata; the layer runs
 *      at max(compute, DRAM transfer) under double buffering.  Window
 *      advance is capped by the provisioned SRAM bandwidth
 *      (ArchConfig::effectiveBwScale), the paper's "SRAM BW must
 *      scale with speedup" constraint.
 *
 * Schedule reuse within one GEMM mirrors the hardware:
 *
 *   - Sparse.B schedules are computed once per column tile and reused
 *     by every row tile (they are independent of A's values).
 *   - Sparse.A schedules are computed once per row tile and reused by
 *     every column tile.
 *   - Dual schedules are per tile pair; deterministic sampling keeps
 *     large layers tractable (sim/sampling.hh).
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

struct LayerWorkset; // tensor/workset.hh

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

    /**
     * Extra cycles per output tile for pipeline fill and accumulator
     * drain (output synchronization).  The paper's dense latencies are
     * compute-dominated, so the default is 0.
     */
    int drainCyclesPerTile = 0;
};

/**
 * Stage-1 artifact: operand views plus their content statistics.  The
 * matrices are borrowed, not owned — the caller (a LayerWorkset held
 * by shared_ptr, or stack matrices in tests) must outlive the
 * simulation call.
 */
struct GemmOperands
{
    const MatrixI8 *a = nullptr;
    const MatrixI8 *b = nullptr;
    std::int64_t effectualOps = 0; ///< MACs with both operands nonzero
    std::int64_t nnzB = 0;         ///< nonzeros of B (payload bytes)
};

/** Compute the stage-1 statistics of two free-standing matrices. */
GemmOperands makeGemmOperands(const MatrixI8 &a, const MatrixI8 &b);

/** View a generated workset as stage-1 operands (statistics reused,
 *  nothing recomputed).  The workset must outlive the view. */
GemmOperands gemmOperands(const LayerWorkset &workset);

/** Result of simulating one GEMM. */
struct GemmSimResult
{
    std::int64_t denseCycles = 0;   ///< dense-baseline cycles
    std::int64_t computeCycles = 0; ///< datapath cycles on this arch
    std::int64_t dramCycles = 0;    ///< DRAM streaming time
    std::int64_t totalCycles = 0;   ///< max(compute, dram) + drain
    std::int64_t dramBytes = 0;     ///< A + B(+metadata) + C traffic
    std::int64_t denseOps = 0;      ///< M*K*N MACs
    std::int64_t effectualOps = 0;  ///< MACs with both operands nonzero
    ScheduleStats sched;            ///< summed over simulated tiles
                                    ///< (unscaled)
    std::int64_t simulatedTiles = 0;
    std::int64_t totalTiles = 0;

    /** Normalized speedup over the dense baseline. */
    double
    speedup() const
    {
        return totalCycles > 0 ? static_cast<double>(denseCycles) /
                                     static_cast<double>(totalCycles)
                               : 1.0;
    }
};

/**
 * Stages 2 + 3 over prepared operands: simulate C = A x B on `arch`
 * running in workload category `cat` (the category selects Griffin's
 * morph and the bandwidth provisioning; non-hybrid architectures use
 * their fixed routing).
 */
GemmSimResult simulateGemm(const GemmOperands &operands,
                           const ArchConfig &arch, DnnCategory cat,
                           const SimOptions &opt = {});

/** The monolithic convenience form: stage 1 (makeGemmOperands) plus
 *  the staged simulation, for callers without a prepared workset. */
GemmSimResult simulateGemm(const MatrixI8 &a, const MatrixI8 &b,
                           const ArchConfig &arch, DnnCategory cat,
                           const SimOptions &opt = {});

} // namespace griffin

#endif // GRIFFIN_SIM_GEMM_SIM_HH
