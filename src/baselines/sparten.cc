#include "baselines/sparten.hh"

#include <algorithm>

#include "common/arena.hh"
#include "runtime/telemetry.hh"
#include "simd/occupancy.hh"
#include "tensor/tile.hh"
#include "tensor/workset.hh"

namespace griffin {

namespace {

/** All ones over [0, k): the mask of a side the routing does not skip. */
void
onesMask(std::int64_t k, std::int64_t words, std::uint64_t *out)
{
    for (std::int64_t w = 0; w < words; ++w)
        out[w] = ~std::uint64_t{0};
    if (k % 64 != 0)
        out[words - 1] = (std::uint64_t{1} << (k % 64)) - 1;
}

/** Columns of the 64-column slab of n that starts at `base`. */
int
slabWidth(std::int64_t n, std::int64_t base)
{
    return static_cast<int>(std::min<std::int64_t>(64, n - base));
}

/**
 * What both forms check and report before they read an operand: the
 * dense yardstick of an m x k x n GEMM on a MacGrid `arch`.
 */
GemmSimResult
denseFields(std::int64_t m, std::int64_t k, std::int64_t n,
            const ArchConfig &arch)
{
    arch.validate();
    if (arch.style != DatapathStyle::MacGrid)
        fatal("simulateSparTen needs a MacGrid architecture, got '",
              arch.name, "'");
    GemmSimResult result;
    result.denseCycles = denseCycles(m, k, n, arch.tile);
    result.denseOps = m * k * n;
    result.totalTiles = m * n; // one "tile" per output here
    return result;
}

/**
 * The grid both forms share, over A's rows (`a`, or all ones when
 * null) and B's column masks over k (`b_cols`: column j at j * words,
 * or all ones when null): one overlap count per output, then the
 * balancer.  Fills the fields denseFields leaves.
 */
void
runGrid(const MatrixI8 *a, const std::uint64_t *b_cols, std::int64_t m,
        std::int64_t k, std::int64_t n, const ArchConfig &arch,
        GemmSimResult &result)
{
    const std::int64_t words = (k + 63) / 64;
    Arena &arena = workArena();
    ArenaScope scope(arena);

    // A's row masks over k.
    auto *rows = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(m * words));
    if (a != nullptr)
        simd::aRowMasks(*a, 0, m, words, rows);
    else
        for (std::int64_t mi = 0; mi < m; ++mi)
            onesMask(k, words, rows + mi * words);

    // One overlap count per (A row, column) in 64-column slabs, so a
    // slab's masks stay in cache across the rows; stored in output
    // order.
    auto *ones = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(64 * words));
    auto *work = arena.alloc<std::int32_t>(static_cast<std::size_t>(m * n));
    if (b_cols == nullptr)
        for (int j = 0; j < 64; ++j)
            onesMask(k, words, ones + j * words);
    for (std::int64_t base = 0; base < n; base += 64) {
        const std::uint64_t *slab =
            b_cols != nullptr ? b_cols + base * words : ones;
        for (std::int64_t mi = 0; mi < m; ++mi)
            simd::andPopcount(rows + mi * words, slab, words,
                              slabWidth(n, base), work + mi * n + base);
    }

    // Least-loaded assignment of outputs to MACs, in output order.
    // Each output takes one least-loaded MAC and puts it back at
    // load + work, so the multiset of loads after every step — and
    // computeCycles, its final maximum — is the same whichever
    // least-loaded MAC a tie-break picks; no MAC identity is kept.
    // Every load lies in [least, least + k + sparTenOutputOverhead],
    // so a ring of k + sparTenOutputOverhead + 1 counters, indexed by
    // load modulo the ring size, holds the whole multiset; `least`
    // only ever rises.
    const std::int64_t ring_size = k + sparTenOutputOverhead + 1;
    auto *ring =
        arena.allocZeroed<std::int32_t>(static_cast<std::size_t>(ring_size));
    ring[0] = static_cast<std::int32_t>(arch.tile.macsPerCycle());
    std::int64_t least = 0;
    std::int64_t head = 0; // least % ring_size
    std::int64_t effectual = 0;
    for (std::int64_t o = 0; o < m * n; ++o) {
        effectual += work[o];
        std::int64_t slot = head + work[o] + sparTenOutputOverhead;
        if (slot >= ring_size)
            slot -= ring_size;
        --ring[head];
        ++ring[slot];
        while (ring[head] == 0) {
            ++least;
            if (++head == ring_size)
                head = 0;
        }
    }
    std::int64_t max_load = least;
    for (std::int64_t d = ring_size - 1; d > 0; --d) {
        if (ring[(head + d) % ring_size] != 0) {
            max_load = least + d;
            break;
        }
    }
    result.effectualOps = effectual;
    result.computeCycles = max_load;
    result.simulatedTiles = result.totalTiles;
}

} // namespace

GemmSimResult
simulateSparTen(const MatrixI8 &a, const MatrixI8 &b,
                const ArchConfig &arch, DnnCategory cat,
                const SimOptions &opt)
{
    ScopedSpan span("sparten");
    GRIFFIN_ASSERT(a.cols() == b.rows(), "GEMM shape mismatch");
    static_cast<void>(opt);
    const auto m = static_cast<std::int64_t>(a.rows());
    const auto k = static_cast<std::int64_t>(a.cols());
    const auto n = static_cast<std::int64_t>(b.cols());
    GemmSimResult result = denseFields(m, k, n, arch);
    if (m == 0 || n == 0 || k == 0)
        return result;

    // Which zeros can the hardware actually skip?  A single-sided
    // SparTen matches against a dense mask on the other operand.
    const auto routing = arch.effectiveRouting(cat);
    const std::int64_t words = (k + 63) / 64;
    Arena &arena = workArena();
    ArenaScope scope(arena);
    std::uint64_t *b_cols = nullptr;
    if (routing.sparseB()) {
        b_cols =
            arena.alloc<std::uint64_t>(static_cast<std::size_t>(n * words));
        for (std::int64_t base = 0; base < n; base += 64)
            simd::bColumnMasks(b, base, slabWidth(n, base), words,
                               b_cols + base * words);
    }
    runGrid(routing.sparseA() ? &a : nullptr, b_cols, m, k, n, arch,
            result);
    return result;
}

GemmSimResult
simulateSparTen(const LayerWorkset &ws, const ArchConfig &arch,
                DnnCategory cat)
{
    const WorksetParams &p = ws.params();
    GemmSimResult result = denseFields(p.m, p.k, p.n, arch);
    if (p.m == 0 || p.n == 0 || p.k == 0)
        return result;

    // Generate what the grid reads before the sparten span opens, so
    // gen_a and gen_b stay top-level stages: A whole when its zeros are
    // skipped, and B's column masks when its zeros are, drawn 64
    // columns at a time and folded into masks as they come.
    const auto routing = arch.effectiveRouting(cat);
    const MatrixI8 *a = routing.sparseA() ? &ws.operandA() : nullptr;
    const std::int64_t words = (p.k + 63) / 64;
    Arena &arena = workArena();
    ArenaScope scope(arena);
    std::uint64_t *b_cols = nullptr;
    if (routing.sparseB()) {
        ScopedSpan span("gen_b");
        b_cols =
            arena.alloc<std::uint64_t>(static_cast<std::size_t>(p.n * words));
        for (std::int64_t base = 0; base < p.n; base += 64) {
            const int width = slabWidth(p.n, base);
            simd::bColumnMasks(ws.bColumns(base, width), 0, width, words,
                               b_cols + base * words);
        }
    }
    ScopedSpan span("sparten");
    runGrid(a, b_cols, p.m, p.k, p.n, arch, result);
    return result;
}

} // namespace griffin
