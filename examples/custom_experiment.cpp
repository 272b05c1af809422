/**
 * @file
 * Registering and running a custom experiment programmatically — the
 * ~30-line answer to "add an experiment" that used to be a new bench
 * binary.
 *
 * The descriptor names the study, declares its grid (here: lane bias
 * x shuffle on/off on one network), and renders the reduced result;
 * runExperiment() handles expansion and the worker threads uniformly,
 * through the same runExperiments() path `griffin_bench run` takes.
 *
 *   ./custom_experiment
 */

#include <iostream>

#include "runtime/experiment.hh"
#include "workloads/network.hh"

using namespace griffin;

int
main()
{
    registerExperiment(
        {"shuffle_vs_bias",
         "does the shuffler pay off as lane imbalance grows?",
         /*defaultSample=*/0.05, /*defaultRowCap=*/32,
         [](const RunOptions &) {
             ExperimentPlan plan;
             plan.grid.axis("weight_lane_bias", {0.0, 0.4, 0.8})
                 .axis("arch", {"B(6,0,0,off)", "B(6,0,0,on)"})
                 .axis("category", {"b"});
             plan.base.networks = {networkByName("resnet50")};
             return plan;
         },
         [](const ExperimentContext &ctx) {
             Table t("shuffle gain vs weight lane bias",
                     {"lane bias", "off", "on"});
             for (std::size_t o = 0;
                  o < ctx.spec->optionVariants.size(); ++o)
                 t.addRow({Table::num(
                               ctx.spec->optionVariants[o]
                                   .weightLaneBias, 1),
                           Table::num(ctx.variantGeomean(o, 0, 0)),
                           Table::num(ctx.variantGeomean(o, 1, 0))});
             return std::vector<Table>{t};
         }});

    const Experiment &exp = *findExperiment("shuffle_vs_bias");
    RunOptions run;
    run.sim.sampleFraction = exp.defaultSample;
    run.sim.minSampledTiles = 4;
    run.rowCap = exp.defaultRowCap;
    ExperimentRunConfig config;
    config.threads = 4;

    std::cout << describeExperiment(exp) << '\n';
    const auto outcome = runExperiment(exp, run, config);
    for (const auto &table : outcome.tables) {
        table.print(std::cout);
        std::cout << '\n';
    }
    return 0;
}
