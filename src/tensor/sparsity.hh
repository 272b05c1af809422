/**
 * @file
 * Synthetic sparse tensor generation and sparsity measurement.
 *
 * The paper evaluates on pruned checkpoints we cannot redistribute;
 * cycle counts depend only on the *positions* of zeros, so we
 * substitute i.i.d. Bernoulli masks at the published per-network
 * sparsity ratios (Table IV) — the standard model for unstructured
 * magnitude pruning and ReLU-induced activation sparsity.  A clustered
 * generator is also provided to stress load-balancing behaviour
 * (shuffle and d2 borrowing) beyond the i.i.d. case.
 *
 * The two generators on the workset path read the random engine's
 * buffered block in place: laneBiasedSparse (the weights) decodes it 64
 * draws at a time through simd::KernelTable::keepDecode, and
 * clusteredSparse (the activations) walks it element by element.  Both
 * produce the same bytes, and leave the engine at the same position,
 * as one Rng call per draw would.
 */

#ifndef GRIFFIN_TENSOR_SPARSITY_HH
#define GRIFFIN_TENSOR_SPARSITY_HH

#include "common/rng.hh"
#include "tensor/matrix.hh"

namespace griffin {

/**
 * rows x cols INT8 matrix whose elements are zero with probability
 * `sparsity`, nonzero (uniform over nonzero INT8) otherwise.
 */
MatrixI8 randomSparse(std::size_t rows, std::size_t cols, double sparsity,
                      Rng &rng);

/** Fully dense random matrix (every element nonzero). */
MatrixI8 randomDense(std::size_t rows, std::size_t cols, Rng &rng);

/**
 * Clustered sparsity: zeros arrive in runs of geometric mean length
 * `run_len` along each row, at overall rate `sparsity`.  Models the
 * bursty zero patterns of ReLU feature maps, which are harder to load
 * balance than i.i.d. masks.
 */
MatrixI8 clusteredSparse(std::size_t rows, std::size_t cols,
                         double sparsity, double run_len, Rng &rng);

/**
 * Unbalanced sparsity: each row r gets its own zero rate drawn
 * uniformly from [sparsity - spread, sparsity + spread] (clamped).
 * Stresses cross-lane imbalance.
 */
MatrixI8 unbalancedSparse(std::size_t rows, std::size_t cols,
                          double sparsity, double spread, Rng &rng);

/**
 * Lane-biased sparsity for weight tensors: the nonzero rate of row k
 * is modulated by a periodic profile over (k mod period).
 *
 * Real pruned models are not i.i.d. along K: im2col interleaves filter
 * positions and channel blocks into the k index, and magnitude pruning
 * keeps centre taps / salient channels denser.  Lanes of the
 * dot-product unit (k2 = k mod K0) therefore inherit *persistent* load
 * imbalance — the phenomenon the paper's rotation shuffle exists to
 * fix (Section III, Load Balancing).  `bias` in [0,1] scales the
 * modulation depth; period 4 aligns with the 4x4 crossbar granularity.
 */
MatrixI8 laneBiasedSparse(std::size_t rows, std::size_t cols,
                          double sparsity, double bias, int period,
                          Rng &rng);

/**
 * Apply a pruning mask in place: zero each element independently with
 * probability `sparsity` (used to sparsify an existing tensor).
 */
void pruneInPlace(MatrixI8 &m, double sparsity, Rng &rng);

} // namespace griffin

#endif // GRIFFIN_TENSOR_SPARSITY_HH
