#include "tensor/sparsity.hh"

#include <algorithm>
#include <cmath>

#include "common/arena.hh"
#include "simd/occupancy.hh"

namespace griffin {

namespace {

/**
 * The bound of a half-draw test with probability p in [0, 1]: x <
 * halfBelow(p) holds for round(p * 2^32) of the 2^32 values of a
 * 32-bit x.
 */
std::uint64_t
halfBelow(double p)
{
    return static_cast<std::uint64_t>(std::llround(p * 0x1p32));
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
clusteredSparse(std::size_t rows, std::size_t cols, double sparsity,
                double run_len, std::uint64_t seed)
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
    // Per position, one draw: its high half flips the state with
    // probability enter_zero or exit_zero (at the row's first position,
    // it starts a zero run with probability `sparsity`), and its low
    // half is the value outside a zero run.  The state feeds selects
    // only, no branch and no table load, so the chain's serial step
    // stays short: 3 ns per element against 7.5-9 with a branch and a
    // table load (gcc 12, one thread of a 4-vCPU AVX-512 x86 VM).
    const std::uint64_t start = halfBelow(sparsity);
    const std::uint64_t enter_below = halfBelow(enter_zero);
    const std::uint64_t exit_below = halfBelow(exit_zero);
    for (std::size_t r = 0; r < rows; ++r) {
        const std::uint64_t key = Rng::mixSeed(seed, r);
        std::int8_t *row = m.data() + r * cols;
        bool in_zero_run = false;
        std::uint64_t flip = start;
        for (std::size_t c = 0; c < cols; ++c) {
            const std::uint64_t h = Rng::counterDraw(key, c);
            in_zero_run ^= (h >> 32) < flip;
            flip = in_zero_run ? exit_below : enter_below;
            row[c] = static_cast<std::int8_t>(
                Rng::nonzeroInt8FromDraw(h << 32) &
                -static_cast<int>(!in_zero_run));
        }
    }
    return m;
}

namespace {

/**
 * The draw inputs of laneBiasedColumns' rows [0, rows) from column
 * `first`: row r's key, advanced past its first `first` draws, in
 * keys[r], and its lane phase's keep bound in belows[r].
 */
void
laneRows(std::size_t rows, std::size_t first, double sparsity, double bias,
         int period, std::uint64_t seed, std::uint64_t *keys,
         std::uint64_t *belows)
{
    GRIFFIN_ASSERT(sparsity >= 0.0 && sparsity <= 1.0,
                   "sparsity ", sparsity, " outside [0,1]");
    GRIFFIN_ASSERT(bias >= 0.0 && bias <= 1.0,
                   "bias ", bias, " outside [0,1]");
    GRIFFIN_ASSERT(period >= 1, "period ", period, " below 1");
    const double density = 1.0 - sparsity;
    const auto phases = static_cast<std::size_t>(period);
    for (std::size_t r = 0; r < rows; ++r) {
        keys[r] = Rng::counterSkip(Rng::mixSeed(seed, r), first);
        if (r >= phases) {
            belows[r] = belows[r - phases];
            continue;
        }
        // Triangular profile over the period, zero-mean so the overall
        // rate stays on target: phase 0 is the densest position.
        const double centered =
            period == 1 ? 0.0
                        : 1.0 - 2.0 * static_cast<int>(r) /
                                    static_cast<double>(period - 1);
        belows[r] = halfBelow(
            std::clamp(density * (1.0 + bias * centered), 0.0, 1.0));
    }
}

} // namespace

MatrixI8
laneBiasedColumns(std::size_t rows, std::size_t first, std::size_t cols,
                  double sparsity, double bias, int period,
                  std::uint64_t seed)
{
    // One fillRows call fills every row.  The two arrays come from the
    // thread's work arena, whose pages are already resident: fresh heap
    // pages beside a whole B raised fig8's peak RSS by 0.1-0.2 MiB.
    Arena &arena = workArena();
    ArenaScope scope(arena);
    auto *keys = arena.alloc<std::uint64_t>(rows);
    auto *belows = arena.alloc<std::uint64_t>(rows);
    laneRows(rows, first, sparsity, bias, period, seed, keys, belows);
    MatrixI8 m(rows, cols);
    simd::kernels().fillRows(keys, belows, static_cast<std::int64_t>(rows),
                             static_cast<std::int64_t>(cols), m.data());
    return m;
}

void
laneBiasedColumnMasks(std::size_t rows, std::size_t first, int width,
                      double sparsity, double bias, int period,
                      std::uint64_t seed, std::int64_t words,
                      std::uint64_t *out)
{
    GRIFFIN_ASSERT(width >= 1 && width <= 64,
                   "column masks need 1..64 columns, got ", width);
    // Rows at and past min(rows, words * 64) keep nothing (bound 0), so
    // every block is a whole one.
    const auto padded = static_cast<std::size_t>(words) * 64;
    Arena &arena = workArena();
    ArenaScope scope(arena);
    auto *keys = arena.allocZeroed<std::uint64_t>(padded);
    auto *belows = arena.allocZeroed<std::uint64_t>(padded);
    laneRows(std::min(rows, padded), first, sparsity, bias, period, seed,
             keys, belows);
    const simd::KernelTable &kern = simd::kernels();
    alignas(64) std::int8_t block[64 * 64];
    std::uint64_t masks[64];
    for (std::int64_t w = 0; w < words; ++w) {
        kern.keepBlock(keys + w * 64, belows + w * 64, width, block);
        kern.nonzeroMasks(block, 64, 64, width, masks);
        for (int c = 0; c < width; ++c)
            out[c * words + w] = masks[c];
    }
}

MatrixI8
laneBiasedSparse(std::size_t rows, std::size_t cols, double sparsity,
                 double bias, int period, std::uint64_t seed)
{
    return laneBiasedColumns(rows, 0, cols, sparsity, bias, period, seed);
}

} // namespace griffin
