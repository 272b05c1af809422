#include "baselines/sparten.hh"

#include <algorithm>

#include "common/arena.hh"
#include "runtime/telemetry.hh"
#include "simd/occupancy.hh"
#include "tensor/tile.hh"

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

} // namespace

GemmSimResult
simulateSparTen(const MatrixI8 &a, const MatrixI8 &b,
                const ArchConfig &arch, DnnCategory cat,
                const SimOptions &opt)
{
    ScopedSpan span("sparten");
    arch.validate();
    if (arch.style != DatapathStyle::MacGrid)
        fatal("simulateSparTen needs a MacGrid architecture, got '",
              arch.name, "'");
    GRIFFIN_ASSERT(a.cols() == b.rows(), "GEMM shape mismatch");
    static_cast<void>(opt);

    const auto m = static_cast<std::int64_t>(a.rows());
    const auto k = static_cast<std::int64_t>(a.cols());
    const auto n = static_cast<std::int64_t>(b.cols());
    const auto routing = arch.effectiveRouting(cat);

    GemmSimResult result;
    result.denseCycles = denseCycles(m, k, n, arch.tile);
    result.denseOps = m * k * n;
    result.totalTiles = m * n; // one "tile" per output here
    if (m == 0 || n == 0 || k == 0) {
        return result;
    }

    // Which zeros can the hardware actually skip?  A single-sided
    // SparTen matches against a dense mask on the other operand.
    const bool skip_a = routing.sparseA();
    const bool skip_b = routing.sparseB();
    const std::int64_t words = (k + 63) / 64;
    Arena &arena = workArena();
    ArenaScope scope(arena);

    // A's row masks over k.
    auto *rows = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(m * words));
    if (skip_a)
        simd::aRowMasks(a, 0, m, words, rows);
    else
        for (std::int64_t mi = 0; mi < m; ++mi)
            onesMask(k, words, rows + mi * words);

    // B in 64-column slabs of column k masks (zero past k), then one
    // overlap count per (A row, slab column), stored in output order.
    auto *cols = arena.alloc<std::uint64_t>(
        static_cast<std::size_t>(64 * words));
    auto *work = arena.alloc<std::int32_t>(static_cast<std::size_t>(m * n));
    if (!skip_b)
        for (int j = 0; j < 64; ++j)
            onesMask(k, words, cols + j * words);
    for (std::int64_t base = 0; base < n; base += 64) {
        const auto width = std::min<std::int64_t>(64, n - base);
        if (skip_b)
            simd::bColumnMasks(b, base, static_cast<int>(width), words,
                               cols);
        for (std::int64_t mi = 0; mi < m; ++mi)
            simd::andPopcount(rows + mi * words, cols, words, width,
                              work + mi * n + base);
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
    return result;
}

} // namespace griffin
