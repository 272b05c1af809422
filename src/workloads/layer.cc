#include "workloads/layer.hh"

#include <limits>

#include "common/logging.hh"

namespace griffin {

void
LayerSpec::validate() const
{
    if (m <= 0 || k <= 0 || n <= 0)
        fatal("layer '", name, "' has non-positive GEMM dims (", m, ",",
              k, ",", n, ")");
    if (groups <= 0 || repeat <= 0)
        fatal("layer '", name, "' has non-positive groups/repeat");
    // Negative overrides mean "use the network's rate"; negated so a
    // NaN override fails too.
    if (!(weightSparsity <= 1.0) || !(actSparsity <= 1.0))
        fatal("layer '", name, "' has sparsity above 1 or NaN");
    // macs() and denseCycles() multiply the five extents as plain
    // int64; catch the silent wraparound here so a bad layer table
    // fails by name instead of reporting garbage cycle counts.
    // denseCycles() rounds each GEMM dim up to its tile quantum, so
    // demand headroom beyond the raw product for the padded one.
    std::int64_t product = m;
    const std::int64_t factors[] = {k, n, static_cast<std::int64_t>(groups),
                                    repeat};
    for (const std::int64_t f : factors) {
        if (__builtin_mul_overflow(product, f, &product))
            fatal("layer '", name, "' MAC count overflows int64 (",
                  m, " x ", k, " x ", n, " x ", groups, " x ", repeat,
                  ")");
    }
    constexpr std::int64_t kTilePaddingHeadroom = 1 << 12;
    if (product > std::numeric_limits<std::int64_t>::max() /
                      kTilePaddingHeadroom)
        fatal("layer '", name, "' MAC count ", product,
              " leaves no headroom for tile-padded cycle counts");
}

LayerSpec
fcLayer(const std::string &name, std::int64_t in, std::int64_t out,
        std::int64_t batch)
{
    LayerSpec layer;
    layer.name = name;
    layer.m = batch;
    layer.k = in;
    layer.n = out;
    layer.validate();
    return layer;
}

} // namespace griffin
