#include "tensor/workset.hh"

#include <algorithm>

#include "common/arena.hh"
#include "common/rng.hh"
#include "runtime/telemetry.hh"
#include "simd/occupancy.hh"
#include "tensor/sparsity.hh"

namespace griffin {

std::int64_t
countEffectualOps(const MatrixI8 &a, const MatrixI8 &b)
{
    GRIFFIN_ASSERT(a.cols() == b.rows(), "GEMM shape mismatch: A ",
                   a.rows(), "x", a.cols(), ", B ", b.rows(), "x",
                   b.cols());
    // Column-nnz of A accumulates row by row (rows are contiguous; the
    // k-strided column walk was the hot spot), then one contiguous
    // count per B row.
    const simd::KernelTable &kern = simd::kernels();
    Arena &arena = workArena();
    ArenaScope scope(arena);
    auto *a_nnz = arena.allocZeroed<std::int32_t>(a.cols());
    for (std::size_t m = 0; m < a.rows(); ++m)
        kern.accumulateNonzero(a.data() + m * a.cols(), a.cols(),
                               a_nnz);
    std::int64_t total = 0;
    for (std::size_t k = 0; k < a.cols(); ++k)
        total += static_cast<std::int64_t>(a_nnz[k]) *
                 kern.countNonzero(b.data() + k * b.cols(), b.cols());
    return total;
}

namespace {

/** Salts that fork a layer seed into its three independent streams. */
enum Stream : std::uint64_t
{
    StreamA = 0,
    StreamB = 1,
    StreamSampling = 2,
};

} // namespace

LayerWorkset::LayerWorkset(const WorksetParams &params)
    : simSeed(static_cast<std::uint64_t>(
          Rng(Rng::mixSeed(params.seed, StreamSampling))
              .uniformInt(0, 1 << 30))),
      params_(params)
{
}

const MatrixI8 &
LayerWorkset::operandA() const
{
    if (!generatedA_) {
        ScopedSpan span("gen_a");
        a = clusteredSparse(static_cast<std::size_t>(params_.m),
                            static_cast<std::size_t>(params_.k),
                            params_.actSparsity, params_.actRunLength,
                            Rng::mixSeed(params_.seed, StreamA));
        generatedA_ = true;
    }
    return a;
}

MatrixI8
LayerWorkset::bColumns(std::int64_t first, std::int64_t width) const
{
    drawnB_ += params_.k * width;
    return laneBiasedColumns(static_cast<std::size_t>(params_.k),
                             static_cast<std::size_t>(first),
                             static_cast<std::size_t>(width),
                             params_.weightSparsity, params_.weightLaneBias,
                             weightLanePeriod,
                             Rng::mixSeed(params_.seed, StreamB));
}

std::vector<TileViewB>
LayerWorkset::bTiles(const std::vector<std::int64_t> &cols,
                     const TileShape &shape) const
{
    // A tile's (first column, width): its columns that lie inside B.
    const auto range = [&](std::int64_t col) {
        const std::int64_t first = col * shape.n0;
        GRIFFIN_ASSERT(col >= 0 && first < params_.n, "column tile ", col,
                       " outside B's ", params_.n, " columns");
        return std::make_pair(first,
                              std::min<std::int64_t>(shape.n0,
                                                     params_.n - first));
    };
    const auto drawn = [&](std::int64_t col) {
        return bTiles_.count(range(col)) != 0;
    };
    if (!std::all_of(cols.begin(), cols.end(), drawn)) {
        ScopedSpan span("gen_b");
        for (const std::int64_t col : cols) {
            const auto key = range(col);
            if (bTiles_.count(key) == 0)
                bTiles_.emplace(key, bColumns(key.first, key.second));
        }
    }
    std::vector<TileViewB> views;
    views.reserve(cols.size());
    for (const std::int64_t col : cols) {
        const auto key = range(col);
        views.emplace_back(bTiles_.at(key), shape, key.first, key.first);
    }
    return views;
}

LayerWorkset
generateLayerWorkset(const WorksetParams &params)
{
    LayerWorkset ws(params);
    ws.operandA();
    ws.b = ws.bColumns(0, params.n);
    return ws;
}

} // namespace griffin
