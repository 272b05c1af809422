#include "tensor/sparsity.hh"

#include <algorithm>
#include <vector>

#include "simd/occupancy.hh"

namespace griffin {

namespace {

/** Rng::nonzeroInt8FromDraw(u) when `keep`, else 0, without a branch. */
inline std::int8_t
valueOrZero(std::uint64_t u, bool keep)
{
    return static_cast<std::int8_t>(Rng::nonzeroInt8FromDraw(u) &
                                    -static_cast<int>(keep));
}

/**
 * Generate one row of clusteredSparse element by element with the same
 * draws as the per-draw generator, but read from the engine's buffered
 * block in place.  `fast(u, c)` handles element c from draws u[0] and
 * u[1] (an element takes one or two) and returns how many it took, or
 * -1 when nonzeroInt8() would reject its value draw.  The element then
 * goes to `slow(c)`, which draws through `rng` as usual — as does every
 * element met with fewer than two draws left in the block.
 */
template <typename Fast, typename Slow>
void
walkRow(Rng &rng, std::size_t cols, Fast fast, Slow slow)
{
    Mt64 &engine = rng.engine();
    for (std::size_t c = 0; c < cols;) {
        const std::uint64_t *block = engine.block();
        const int start = engine.pos();
        int pos = start;
        for (; c < cols && pos <= Mt64::kN - 2; ++c) {
            const int used = fast(block + pos, c);
            if (used < 0)
                break;
            pos += used;
        }
        engine.consume(pos - start);
        if (c < cols)
            slow(c++);
    }
}

} // namespace

MatrixI8
randomSparse(std::size_t rows, std::size_t cols, double sparsity, Rng &rng)
{
    GRIFFIN_ASSERT(sparsity >= 0.0 && sparsity <= 1.0,
                   "sparsity ", sparsity, " outside [0,1]");
    MatrixI8 m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        std::int8_t *row = m.data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c)
            if (!rng.bernoulli(sparsity))
                row[c] = rng.nonzeroInt8();
    }
    return m;
}

MatrixI8
randomDense(std::size_t rows, std::size_t cols, Rng &rng)
{
    return randomSparse(rows, cols, 0.0, rng);
}

MatrixI8
clusteredSparse(std::size_t rows, std::size_t cols, double sparsity,
                double run_len, Rng &rng)
{
    GRIFFIN_ASSERT(sparsity >= 0.0 && sparsity <= 1.0,
                   "sparsity ", sparsity, " outside [0,1]");
    GRIFFIN_ASSERT(run_len >= 1.0, "run length ", run_len, " below 1");
    MatrixI8 m(rows, cols);
    // Two-state Markov chain per row.  Stay in the zero state with
    // probability 1 - 1/run_len (mean zero-run length = run_len); the
    // entry rate into the zero state is chosen so the stationary zero
    // fraction equals `sparsity`.
    const double exit_zero = 1.0 / run_len;
    const double enter_zero =
        sparsity >= 1.0 ? 1.0
                        : std::min(1.0, exit_zero * sparsity /
                                            std::max(1e-9, 1.0 - sparsity));
    // Per element: a value draw outside a zero run, then one draw that
    // leaves the current state with probability leave[in_zero_run].
    const BernoulliThreshold leave[2] = {
        Rng::bernoulliThreshold(enter_zero),
        Rng::bernoulliThreshold(exit_zero)};
    for (std::size_t r = 0; r < rows; ++r) {
        std::int8_t *row = m.data() + r * cols;
        bool in_zero_run = rng.bernoulli(sparsity);
        walkRow(
            rng, cols,
            [&](const std::uint64_t *u, std::size_t c) {
                const bool nonzero = !in_zero_run;
                if (nonzero & (u[0] == 0))
                    return -1;
                row[c] = valueOrZero(u[0], nonzero);
                in_zero_run ^= leave[in_zero_run](u[nonzero]);
                return 1 + static_cast<int>(nonzero);
            },
            [&](std::size_t c) {
                if (!in_zero_run)
                    row[c] = rng.nonzeroInt8();
                in_zero_run ^= rng.bernoulli(leave[in_zero_run]);
            });
    }
    return m;
}

MatrixI8
unbalancedSparse(std::size_t rows, std::size_t cols, double sparsity,
                 double spread, Rng &rng)
{
    GRIFFIN_ASSERT(spread >= 0.0, "negative spread ", spread);
    MatrixI8 m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        const double lo = std::max(0.0, sparsity - spread);
        const double hi = std::min(1.0, sparsity + spread);
        const double row_sparsity = lo + (hi - lo) * rng.uniform01();
        std::int8_t *row = m.data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c)
            if (!rng.bernoulli(row_sparsity))
                row[c] = rng.nonzeroInt8();
    }
    return m;
}

MatrixI8
laneBiasedSparse(std::size_t rows, std::size_t cols, double sparsity,
                 double bias, int period, Rng &rng)
{
    GRIFFIN_ASSERT(sparsity >= 0.0 && sparsity <= 1.0,
                   "sparsity ", sparsity, " outside [0,1]");
    GRIFFIN_ASSERT(bias >= 0.0 && bias <= 1.0,
                   "bias ", bias, " outside [0,1]");
    GRIFFIN_ASSERT(period >= 1, "period ", period, " below 1");
    const double density = 1.0 - sparsity;
    // Triangular profile over the period, zero-mean so the overall
    // rate stays on target: phase 0 is the densest position.
    std::vector<BernoulliThreshold> keep_by_phase(
        std::min(static_cast<std::size_t>(period), rows));
    for (std::size_t phase = 0; phase < keep_by_phase.size(); ++phase) {
        const double centered =
            period == 1 ? 0.0
                        : 1.0 - 2.0 * static_cast<int>(phase) /
                                    static_cast<double>(period - 1);
        keep_by_phase[phase] = Rng::bernoulliThreshold(
            std::clamp(density * (1.0 + bias * centered), 0.0, 1.0));
    }
    MatrixI8 m(rows, cols);
    const simd::KernelTable &kern = simd::kernels();
    Mt64 &engine = rng.engine();
    for (std::size_t r = 0; r < rows; ++r) {
        const BernoulliThreshold keep = keep_by_phase[r % period];
        std::int8_t *row = m.data() + r * cols;
        // Per element: a keep draw, then a value draw if kept.  The
        // kernel decodes the engine's buffered draws in place; the
        // element it cannot finish draws through `rng`, which refills
        // the engine when the block runs out.
        for (std::size_t c = 0; c < cols;) {
            std::int64_t used = 0;
            c += static_cast<std::size_t>(kern.keepDecode(
                engine.block() + engine.pos(), Mt64::kN - engine.pos(),
                keep.below, keep.always,
                static_cast<std::int64_t>(cols - c), row + c, &used));
            engine.consume(static_cast<int>(used));
            if (c < cols) {
                if (rng.bernoulli(keep))
                    row[c] = rng.nonzeroInt8();
                ++c;
            }
        }
    }
    return m;
}

void
pruneInPlace(MatrixI8 &m, double sparsity, Rng &rng)
{
    GRIFFIN_ASSERT(sparsity >= 0.0 && sparsity <= 1.0,
                   "sparsity ", sparsity, " outside [0,1]");
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            if (rng.bernoulli(sparsity))
                m.at(r, c) = 0;
}

} // namespace griffin
