/**
 * @file
 * Ablation: the analytical model against the cycle-level simulator
 * (the paper's methodology statement: "an analytical model, verified
 * by a simulator").  Render-only — the comparison runs on one i.i.d.
 * GEMM per design point, not the network suite.
 */

#include "arch/presets.hh"
#include "common/rng.hh"
#include "model/analytic.hh"
#include "runtime/experiment.hh"
#include "sim/gemm_sim.hh"
#include "tensor/sparsity.hh"

namespace griffin {
namespace {

std::vector<Table>
render(const ExperimentContext &ctx)
{
    struct Point
    {
        RoutingConfig cfg;
        double asp;
        double bsp;
        DnnCategory cat;
    };
    const Point points[] = {
        {RoutingConfig::sparseB(2, 0, 0, false), 0.0, 0.8,
         DnnCategory::B},
        {RoutingConfig::sparseB(4, 0, 0, false), 0.0, 0.8,
         DnnCategory::B},
        {RoutingConfig::sparseB(4, 0, 1, false), 0.0, 0.8,
         DnnCategory::B},
        {RoutingConfig::sparseB(6, 0, 0, false), 0.0, 0.8,
         DnnCategory::B},
        {RoutingConfig::sparseB(4, 0, 1, false), 0.0, 0.5,
         DnnCategory::B},
        {RoutingConfig::sparseB(4, 0, 1, false), 0.0, 0.95,
         DnnCategory::B},
        {RoutingConfig::sparseA(2, 1, 0, false), 0.5, 0.0,
         DnnCategory::A},
        {RoutingConfig::sparseA(3, 1, 0, false), 0.4, 0.0,
         DnnCategory::A},
        {RoutingConfig::sparseA(2, 1, 1, false), 0.6, 0.0,
         DnnCategory::A},
        {RoutingConfig::sparseAB(2, 0, 0, 2, 0, 1, false), 0.5, 0.8,
         DnnCategory::AB},
        {RoutingConfig::sparseAB(2, 0, 0, 4, 0, 2, false), 0.45, 0.85,
         DnnCategory::AB},
    };

    Table t("Analytical model vs cycle-level simulator (i.i.d. "
            "operands, 64x768x32 GEMM)",
            {"config", "A/B sparsity", "analytic", "simulated",
             "ratio"});
    Rng rng(ctx.run.seed);
    const TileShape shape{};
    for (const auto &p : points) {
        auto a = randomSparse(64, 768, p.asp, rng);
        auto b = randomSparse(768, 32, p.bsp, rng);
        ArchConfig arch = denseBaseline();
        arch.routing = p.cfg;
        arch.name = p.cfg.str();
        const auto sim = simulateGemm(a, b, arch, p.cat);
        const double model =
            analyticSpeedup(p.cfg, shape, p.asp, p.bsp);
        t.addRow({p.cfg.str(),
                  Table::num(p.asp, 2) + "/" + Table::num(p.bsp, 2),
                  Table::num(model), Table::num(sim.speedup()),
                  Table::num(model / sim.speedup(), 2)});
    }
    return {t};
}

const bool registered = registerExperiment(
    {"ablation_analytic", "Ablation: analytical model vs simulator",
     /*defaultSample=*/0.04, /*defaultRowCap=*/48, nullptr, render});

} // namespace
} // namespace griffin
