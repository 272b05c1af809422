/**
 * @file
 * SparTen-style MAC-grid simulator (Gondimalla et al., MICRO'19; the
 * paper's strongest dual-sparse comparison point).
 *
 * SparTen has no K unrolling: each of the 1024 MACs independently
 * matches compressed operand pairs with prefix-sum logic over deep
 * (128-entry) input buffers, and accumulates one output at a time.
 * Work per output is therefore the *exact* effectual-pair count (near
 * ideal zero skipping — SparTen's strength), but outputs must be load
 * balanced across MACs at coarse grain, accumulators are unshared, and
 * both operands travel with bitmask metadata (SparTen's cost, Section
 * VI-E).
 *
 * Timing model: outputs are assigned to the least-loaded MAC in
 * arrival order (the coarse-grain balancing of [18]); the grid
 * finishes when the most loaded MAC drains, plus a fixed per-output
 * match/writeback overhead.  The result is compute cycles only; DRAM
 * traffic is priced per layer by Accelerator::runLayer.
 *
 * Every whole-matrix pass runs 64 bits at a time.  A's row masks over
 * k come from the SIMD `nonzeroMasks` kernel; B is read in 64-column
 * slabs as one occupancy word per k row, and a 64 x 64 bit transpose
 * turns each block of 64 rows into the slab columns' k masks.  A side
 * the routing does not skip is all ones up to k.  `simd::andPopcount`
 * then counts every output's effectual pairs, one call per (A row,
 * slab).  The balancer needs no heap: each output removes one
 * least-loaded MAC and returns it at load + work, so the multiset of
 * loads after every step does not depend on which of several
 * least-loaded MACs is picked, and its final maximum is the compute
 * time.  All loads lie within k + sparTenOutputOverhead of the least
 * one, so the multiset is a ring of per-load counters.
 *
 * Two forms share that grid, as simulateGemm's do.  The two-matrix
 * form reads A and B whole.  The workset form generates only what the
 * grid reads, and never B whole: A (LayerWorkset::operandA) when the
 * routing skips A's zeros, and, when it skips B's, each 64-column slab
 * of B drawn on its own (LayerWorkset::bColumns), folded into its
 * columns' k masks and dropped.  All of B's masks take one bit per
 * element, an eighth of B.
 */

#ifndef GRIFFIN_BASELINES_SPARTEN_HH
#define GRIFFIN_BASELINES_SPARTEN_HH

#include "arch/arch_config.hh"
#include "sim/gemm_sim.hh"
#include "tensor/matrix.hh"

namespace griffin {

struct LayerWorkset;

/** Cycles a MAC spends matching + writing back each output. */
inline constexpr int sparTenOutputOverhead = 2;

/**
 * Simulate C = A x B on a SparTen-style MacGrid architecture.  The
 * result's denseCycles is the vector-core baseline so speedups remain
 * normalized to the same yardstick as every other architecture.
 */
GemmSimResult simulateSparTen(const MatrixI8 &a, const MatrixI8 &b,
                              const ArchConfig &arch, DnnCategory cat,
                              const SimOptions &opt = {});

/**
 * simulateSparTen over a workset's operands, equal to the two-matrix
 * form on the workset's whole matrices.  Before the `sparten` span
 * opens it generates A whole when the routing skips A's zeros
 * (`gen_a`), and streams B into its column masks in one `gen_b` span
 * when it skips B's; it keeps no column of B.
 */
GemmSimResult simulateSparTen(const LayerWorkset &ws, const ArchConfig &arch,
                              DnnCategory cat);

} // namespace griffin

#endif // GRIFFIN_BASELINES_SPARTEN_HH
