#include "tensor/workset.hh"

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

LayerWorkset
generateLayerWorkset(const WorksetParams &params)
{
    // The draw order (A, then B, then the sampling fork) is frozen:
    // it reproduces the stream Accelerator::runLayer drew before the
    // pipeline split, and every baseline row depends on it.
    ScopedSpan span("operand_gen");
    LayerWorkset ws;
    Rng rng(params.seed);
    ws.a = clusteredSparse(static_cast<std::size_t>(params.m),
                           static_cast<std::size_t>(params.k),
                           params.actSparsity, params.actRunLength, rng);
    ws.b = laneBiasedSparse(static_cast<std::size_t>(params.k),
                            static_cast<std::size_t>(params.n),
                            params.weightSparsity, params.weightLaneBias,
                            params.lanePeriod, rng);
    ws.simSeed = static_cast<std::uint64_t>(
        rng.fork().uniformInt(0, 1 << 30));
    return ws;
}

} // namespace griffin
