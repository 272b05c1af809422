/**
 * @file
 * Ablation: the load-balancing shuffle.
 *
 * (a) shuffle on/off across lane-imbalance depths — the mechanism of
 *     paper observation VI-A(3) (shuffle gains come from structured,
 *     not i.i.d., sparsity).  The lane bias is a real grid axis
 *     (`weight_lane_bias`) crossed with a two-value `arch` axis, so
 *     this is the one migrated bench whose rows carry multi-variant
 *     coordinates.
 * (b) crossbar granularity: the paper's K0/4 local 4x4 crossbars vs a
 *     full K0 x K0 crossbar — a deterministic packing comparison,
 *     rendered directly.
 */

#include "arch/presets.hh"
#include "runtime/experiment.hh"
#include "sched/b_preprocess.hh"
#include "tensor/sparsity.hh"

namespace griffin {
namespace {

ExperimentPlan
setup(const RunOptions &)
{
    ExperimentPlan plan;
    plan.grid
        .axis("weight_lane_bias", {0.0, 0.3, 0.5, 0.8})
        .axis("arch", {"B(6,0,0,off)", "B(6,0,0,on)"})
        .axis("category", {"b"});
    plan.base.networks = benchmarkSuite();
    // The off/on columns index the arch axis and the title names the
    // B suite; the lane-bias axis itself is freely overridable.
    plan.lockedAxes = {"arch", "category"};
    return plan;
}

std::vector<Table>
render(const ExperimentContext &ctx)
{
    Table t("Shuffle ablation — B(6,0,0) suite speedup vs lane bias",
            {"weight lane bias", "shuffle off", "shuffle on", "gain"});
    for (std::size_t o = 0; o < ctx.spec->optionVariants.size(); ++o) {
        const double bias =
            ctx.spec->optionVariants[o].weightLaneBias;
        const double s_off = ctx.variantGeomean(o, 0, 0);
        const double s_on = ctx.variantGeomean(o, 1, 0);
        t.addRow({Table::num(bias, 1), Table::num(s_off),
                  Table::num(s_on),
                  Table::num(100.0 * (s_on / s_off - 1.0), 1) + "%"});
    }

    // Crossbar granularity on one biased tile set: schedule length of
    // the B packing under local 4x4 rotation vs a full-width crossbar.
    Table xbar("Crossbar granularity — B packing cycles on biased "
               "weights (lower is better)",
               {"granularity", "stream cycles", "vs dense steps"});
    auto b = laneBiasedSparse(1024, 16, 0.85, 0.8, 4, 1234);
    const TileShape shape{};
    TileViewB view(b, shape, 0);
    const Borrow db{6, 0, 0};
    for (int group : {1, 4, 16}) {
        Shuffler sh(group > 1, shape.k0, group == 1 ? 4 : group);
        auto stream = preprocessB(view, db, sh, false);
        xbar.addRow({group == 1 ? "off"
                                : (std::to_string(group) + "x" +
                                   std::to_string(group)),
                     Table::count(static_cast<std::uint64_t>(
                         stream.cycles())),
                     Table::num(static_cast<double>(view.steps()) /
                                    static_cast<double>(
                                        stream.cycles()),
                                2) + "x"});
    }
    return {t, xbar};
}

const bool registered = registerExperiment(
    {"ablation_shuffle", "Ablation: shuffle benefit vs mask structure",
     /*defaultSample=*/0.05, /*defaultRowCap=*/48, setup, render});

} // namespace
} // namespace griffin
