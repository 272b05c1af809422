#include "support/sparten_reference.hh"

#include <algorithm>
#include <queue>
#include <vector>

#include "baselines/sparten.hh"
#include "tensor/tile.hh"

namespace griffin {
namespace reference {

namespace {

/** Bit-packed nonzero masks of the K axis. */
class KMasks
{
  public:
    KMasks(std::size_t vectors, std::size_t k)
        : words_((k + 63) / 64),
          bits_(vectors * words_, 0)
    {
    }

    void
    set(std::size_t vec, std::size_t k)
    {
        bits_[vec * words_ + k / 64] |= std::uint64_t{1} << (k % 64);
    }

    std::size_t words() const { return words_; }

    const std::uint64_t *
    vec(std::size_t v) const
    {
        return &bits_[v * words_];
    }

  private:
    std::size_t words_;
    std::vector<std::uint64_t> bits_;
};

/** Popcount of the AND of a row mask with a column mask. */
std::int64_t
overlap(const KMasks &rows, std::size_t row, const KMasks &cols,
        std::size_t col)
{
    GRIFFIN_ASSERT(rows.words() == cols.words(),
                   "mask width mismatch");
    std::int64_t count = 0;
    const auto *px = rows.vec(row);
    const auto *py = cols.vec(col);
    for (std::size_t w = 0; w < rows.words(); ++w)
        count += __builtin_popcountll(px[w] & py[w]);
    return count;
}

} // namespace

GemmSimResult
simulateSparTen(const MatrixI8 &a, const MatrixI8 &b,
                const ArchConfig &arch, DnnCategory cat)
{
    arch.validate();
    if (arch.style != DatapathStyle::MacGrid)
        fatal("simulateSparTen needs a MacGrid architecture, got '",
              arch.name, "'");
    GRIFFIN_ASSERT(a.cols() == b.rows(), "GEMM shape mismatch");

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
    KMasks rows(static_cast<std::size_t>(m), static_cast<std::size_t>(k));
    KMasks cols(static_cast<std::size_t>(n), static_cast<std::size_t>(k));
    for (std::size_t mi = 0; mi < a.rows(); ++mi)
        for (std::size_t ki = 0; ki < a.cols(); ++ki)
            if (!skip_a || a.at(mi, ki) != 0)
                rows.set(mi, ki);
    for (std::size_t ki = 0; ki < b.rows(); ++ki)
        for (std::size_t ni = 0; ni < b.cols(); ++ni)
            if (!skip_b || b.at(ki, ni) != 0)
                cols.set(ni, ki);
    result.effectualOps = 0;

    // Least-loaded assignment of outputs to MACs, in output order.
    const auto macs =
        static_cast<std::size_t>(arch.tile.macsPerCycle());
    std::priority_queue<std::pair<std::int64_t, std::size_t>,
                        std::vector<std::pair<std::int64_t, std::size_t>>,
                        std::greater<>>
        bins;
    for (std::size_t i = 0; i < macs; ++i)
        bins.push({0, i});
    for (std::int64_t mi = 0; mi < m; ++mi) {
        for (std::int64_t ni = 0; ni < n; ++ni) {
            const auto work =
                overlap(rows, static_cast<std::size_t>(mi), cols,
                        static_cast<std::size_t>(ni)) +
                sparTenOutputOverhead;
            result.effectualOps += work - sparTenOutputOverhead;
            auto [load, idx] = bins.top();
            bins.pop();
            bins.push({load + work, idx});
        }
    }
    std::int64_t max_load = 0;
    while (!bins.empty()) {
        max_load = std::max(max_load, bins.top().first);
        bins.pop();
    }
    result.computeCycles = max_load;
    result.simulatedTiles = result.totalTiles;
    return result;
}

} // namespace reference
} // namespace griffin
