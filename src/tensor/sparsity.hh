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
 * The two generators on the workset path are counter-based
 * (common/rng.hh): position (r, c) takes the one draw h =
 * Rng::counterDraw(Rng::mixSeed(seed, r), c), whose high half decides
 * whether the position is zero and whose low half is its value,
 * Rng::nonzeroInt8FromDraw(h << 32).  An element of laneBiasedSparse
 * (the weights) depends on nothing but the seed and its indices, and
 * a row of clusteredSparse (the activations) on nothing but the seed
 * and its row, so every matrix is the top-left corner of any larger
 * one from the same seed.  laneBiasedSparse fills its rows through
 * simd::KernelTable::fillRow.
 */

#ifndef GRIFFIN_TENSOR_SPARSITY_HH
#define GRIFFIN_TENSOR_SPARSITY_HH

#include <cstdint>

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
 * balance than i.i.d. masks.  Row r is a pure function of (seed, r).
 */
MatrixI8 clusteredSparse(std::size_t rows, std::size_t cols,
                         double sparsity, double run_len,
                         std::uint64_t seed);

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
 * Element (k, n) is a pure function of (seed, k, n).
 */
MatrixI8 laneBiasedSparse(std::size_t rows, std::size_t cols,
                          double sparsity, double bias, int period,
                          std::uint64_t seed);

} // namespace griffin

#endif // GRIFFIN_TENSOR_SPARSITY_HH
