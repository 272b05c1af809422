/**
 * @file
 * A free-form parallel sweep through the library API, declared as a
 * named-axis grid: build a GridSpec with the builder API (or pass
 * --grid), run the expanded jobs on worker threads (one task per grid
 * point and network layer), and serialize the merged results as JSON
 * rows that carry their own grid coordinates.  Unlike
 * `griffin_bench run <exp> --grid`, nothing here is locked by an
 * experiment's render, so any set of architectures, networks, and
 * categories can be crossed.
 *
 *   ./parallel_sweep
 *   ./parallel_sweep --grid "weight_lane_bias=0:1:0.25,seed=1..2"
 *
 * The printed JSON is bit-identical to a --threads 1 run of the same
 * grid: every layer carries an order-independent seed and results
 * merge in submission order, so parallelism never changes the numbers.
 */

#include <iostream>

#include "arch/presets.hh"
#include "common/cli.hh"
#include "runtime/experiment.hh"
#include "runtime/grid.hh"
#include "runtime/result_sink.hh"
#include "runtime/runner.hh"

using namespace griffin;

int
main(int argc, char **argv)
{
    Cli cli("Parallel sweep example: a named-axis grid on worker "
            "threads");
    cli.addInt("threads", hardwareThreads(),
               "worker threads (1 = serial)");
    cli.addString("grid", "",
                  "replace the built-in grid with a parsed spec, e.g. "
                  "\"arch=Griffin,network=resnet50,weight_lane_bias="
                  "0:1:0.5\"");
    cli.parse(argc, argv);

    // The sweep is a GridSpec: named axes, each a value list, expanded
    // as a cartesian product in declaration order.  A 2-arch x
    // 2-network x 2-category x 2-lane-bias grid is 16 jobs, run as one
    // task per (grid point, layer), so even this small grid keeps
    // every worker busy.  Real studies push more values onto the axes
    // (ranges like "0:1:0.25" and "1..8" expand inline).
    GridSpec grid;
    if (!cli.getString("grid").empty())
        grid = GridSpec::parse(cli.getString("grid"));
    else
        grid.axis("arch", {"Griffin", "Sparse.B*"})
            .axis("network", {"resnet50", "bert"})
            .axis("category", {"b", "ab"})
            .axis("weight_lane_bias", {0.25, 0.75});

    // The base spec supplies whatever the grid leaves unswept: default
    // identity axes and the RunOptions fields every variant inherits.
    SweepSpec base;
    base.archs = {griffinArch(), sparseBStar()};
    base.networks = {resNet50(), bertBase()};
    base.categories = {DnnCategory::B, DnnCategory::AB};
    RunOptions fast;
    fast.sim.sampleFraction = 0.05;
    fast.sim.minSampledTiles = 4;
    fast.rowCap = 64;
    base.optionVariants = {fast};

    const SweepSpec spec = grid.toSweepSpec(base);

    const int threads = resolveThreads(cli);
    std::cerr << "running " << spec.jobCount() << " jobs on " << threads
              << " threads\n";

    const auto sweep = runSweep(spec, threads);

    // Every row carries its resolved options and grid coordinates
    // ("coords"), so a two-variant sweep stays distinguishable in the
    // output alone.
    writeJson(std::cout, sweep);
    return 0;
}
