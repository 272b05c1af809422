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
 * one from the same seed.
 *
 * Every engine reads only the weights' nonzero pattern, so a sweep
 * draws them as laneBiasedColumnMasks: the keep tests alone, 64 rows
 * at a time (simd::KernelTable::keepBlock), straight into column
 * masks, with no value and no int8 matrix.  A column range needs no
 * other column's draws: each row's key starts at the range's first
 * column (Rng::counterSkip), so the masks equal those of the whole
 * matrix's columns bit for bit, which is how a workset draws only the
 * column tiles its consumers sample (tensor/workset.hh).
 * laneBiasedSparse makes the int8 weights, row by row through one
 * plain loop (fillWeightRows), from the same row keys and keep bounds
 * (one helper makes them for both), for the callers that read values:
 * generateLayerWorkset, the shuffle ablation and the tests.
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

/**
 * `rows` rows of counter-based weights, `n` wide, row r at out + r *
 * n: for c in [0, n), with h = Rng::counterDraw(keys[r], c), out[r * n
 * + c] is Rng::nonzeroInt8FromDraw(h << 32) when h >> 32 < belows[r],
 * else 0.  Every belows[r] is in [0, 2^32] (0 keeps nothing, 2^32
 * everything), a key may be any value (the counter wraps mod 2^64),
 * and rows and n may be 0.  Writes only [out, out + rows * n).
 * laneBiasedSparse fills its matrix with it.
 */
void fillWeightRows(const std::uint64_t *keys, const std::uint64_t *belows,
                    std::int64_t rows, std::int64_t n, std::int8_t *out);

/**
 * The nonzero masks over k of columns [first, first + width) of
 * laneBiasedSparse(rows, any width past first + width, sparsity, bias,
 * period, seed), bit for bit simd::bColumnMasks of those columns
 * (`words` words per column): bit i of out[c * words + w] is set iff
 * element (w * 64 + i, first + c) is nonzero, and bits at and past
 * `rows` are 0.  Draws only the keep tests, 64 rows by up to 64
 * columns at a time (simd::KernelTable::keepBlock): no value and no
 * matrix.  The row keys are made once per call, so one call of any
 * width costs less than several narrow ones.
 */
void laneBiasedColumnMasks(std::size_t rows, std::size_t first,
                           std::int64_t width, double sparsity, double bias,
                           int period, std::uint64_t seed,
                           std::int64_t words, std::uint64_t *out);

} // namespace griffin

#endif // GRIFFIN_TENSOR_SPARSITY_HH
