#include "runtime/experiment.hh"

#include <algorithm>
#include <thread>

#include "common/logging.hh"
#include "common/strings.hh"

namespace griffin {

namespace {

std::vector<Experiment> &
registry()
{
    static std::vector<Experiment> experiments;
    return experiments;
}

} // namespace

double
ExperimentContext::archGeomean(std::size_t archIndex) const
{
    GRIFFIN_ASSERT(sweep != nullptr,
                   "archGeomean on a render-only experiment");
    GRIFFIN_ASSERT(archIndex < spec->archs.size(),
                   "archGeomean index out of range");
    return geomeanSpeedup(sweep->slice([&](const SweepJob &job) {
        return job.archIndex == archIndex;
    }));
}

double
ExperimentContext::suiteGeomean(std::size_t archIndex,
                                std::size_t categoryIndex) const
{
    GRIFFIN_ASSERT(sweep != nullptr,
                   "suiteGeomean on a render-only experiment");
    GRIFFIN_ASSERT(archIndex < spec->archs.size() &&
                       categoryIndex < spec->categories.size(),
                   "suiteGeomean index out of range");
    return geomeanSpeedup(sweep->slice([&](const SweepJob &job) {
        return job.archIndex == archIndex &&
               job.categoryIndex == categoryIndex;
    }));
}

double
ExperimentContext::variantGeomean(std::size_t optionsIndex,
                                  std::size_t archIndex,
                                  std::size_t categoryIndex) const
{
    GRIFFIN_ASSERT(sweep != nullptr,
                   "variantGeomean on a render-only experiment");
    GRIFFIN_ASSERT(optionsIndex < spec->optionVariants.size() &&
                       archIndex < spec->archs.size() &&
                       categoryIndex < spec->categories.size(),
                   "variantGeomean index out of range");
    return geomeanSpeedup(sweep->slice([&](const SweepJob &job) {
        return job.optionsIndex == optionsIndex &&
               job.archIndex == archIndex &&
               job.categoryIndex == categoryIndex;
    }));
}

bool
registerExperiment(Experiment experiment)
{
    if (experiment.name.empty())
        fatal("experiment registration needs a name");
    if (!experiment.render)
        fatal("experiment '", experiment.name, "' has no render");
    auto &experiments = registry();
    const auto pos = std::lower_bound(
        experiments.begin(), experiments.end(), experiment,
        [](const Experiment &a, const Experiment &b) {
            return a.name < b.name;
        });
    if (pos != experiments.end() && pos->name == experiment.name)
        fatal("experiment '", experiment.name, "' registered twice");
    experiments.insert(pos, std::move(experiment));
    return true;
}

const std::vector<Experiment> &
experimentRegistry()
{
    return registry();
}

const Experiment *
findExperiment(const std::string &name)
{
    for (const auto &exp : registry())
        if (exp.name == name)
            return &exp;
    return nullptr;
}

namespace {

/** Expand an experiment's plan at its default fidelity (for list/
 *  describe sizing; never simulated). */
SweepSpec
planSpec(const Experiment &exp)
{
    RunOptions run;
    run.sim.sampleFraction = exp.defaultSample;
    run.rowCap = exp.defaultRowCap;
    ExperimentPlan plan = exp.setup(run);
    plan.base.optionVariants = {run};
    return plan.grid.axes().empty()
               ? plan.base
               : plan.grid.toSweepSpec(plan.base);
}

} // namespace

Table
experimentListTable()
{
    Table t("Registered experiments",
            {"name", "jobs", "description"});
    for (const auto &exp : registry()) {
        std::string jobs = "-";
        if (exp.setup)
            jobs = std::to_string(expandSweep(planSpec(exp)).size());
        t.addRow({exp.name, jobs, exp.description});
    }
    return t;
}

std::string
describeExperiment(const Experiment &exp)
{
    std::string out = exp.name + " — " + exp.description + "\n";
    out += "  defaults: --sample " +
           formatShortestDouble(exp.defaultSample) + " --rowcap " +
           std::to_string(exp.defaultRowCap) + "\n";
    if (!exp.setup) {
        out += "  sweep: none (render-only)\n";
        return out;
    }
    RunOptions run;
    run.sim.sampleFraction = exp.defaultSample;
    run.rowCap = exp.defaultRowCap;
    const ExperimentPlan plan = exp.setup(run);
    for (const auto &axis : plan.grid.axes()) {
        out += "  axis " + axis.name + " (" +
               std::to_string(axis.values.size()) + " values):";
        for (const auto &v : axis.values)
            out += " " + v;
        out += "\n";
    }
    const SweepSpec spec = planSpec(exp);
    out += "  grid: " + std::to_string(spec.archs.size()) +
           " archs x " + std::to_string(spec.networks.size()) +
           " networks x " + std::to_string(spec.categories.size()) +
           " categories x " +
           std::to_string(spec.optionVariants.size()) +
           " option variants = " +
           std::to_string(expandSweep(spec).size()) + " jobs";
    if (spec.jobFilter)
        out += " (job filter applied)";
    out += "\n";
    return out;
}

namespace {

/**
 * The plan at `run` fidelity, `over` merged into its own grid and the
 * result expanded onto the base.  An empty `over` overrides nothing.
 */
SweepSpec
expandPlan(const Experiment &exp, const RunOptions &run,
           const GridSpec &over)
{
    if (!exp.setup)
        fatal("experiment '", exp.name,
              "' is render-only and has no sweep spec");
    ExperimentPlan plan = exp.setup(run);
    if (plan.base.optionVariants.size() != 1 ||
        !plan.base.optionCoords.empty())
        fatal("experiment '", exp.name,
              "' setup populated base option variants; RunOptions "
              "sweeps must be grid axes");
    plan.base.optionVariants = {run};
    GridSpec grid = std::move(plan.grid);
    if (!over.axes().empty()) {
        // Merge the override into the plan's own grid *before*
        // expansion: same-named axes take the override's values in
        // place, new axes append after the plan's — so experiments
        // whose plans already declare RunOptions axes stay
        // overridable, and the merged coordinates stay complete.
        for (const auto &axis : over.axes())
            for (const auto &locked : plan.lockedAxes)
                if (axis.name == locked)
                    fatal("experiment '", exp.name, "': the '", locked,
                          "' axis is structural (its values and "
                          "order are baked into the rendered "
                          "tables) and cannot be overridden with "
                          "--grid");
        auto overrideValues =
            [&](const std::string &name)
            -> const std::vector<std::string> * {
            for (const auto &axis : over.axes())
                if (axis.name == name)
                    return &axis.values;
            return nullptr;
        };
        GridSpec merged;
        for (const auto &axis : grid.axes()) {
            const auto *replacement = overrideValues(axis.name);
            merged.axis(axis.name, replacement != nullptr
                                       ? *replacement
                                       : axis.values);
        }
        for (const auto &axis : over.axes())
            if (!grid.has(axis.name))
                merged.axis(axis.name, axis.values);
        grid = std::move(merged);
    }
    return grid.axes().empty() ? plan.base : grid.toSweepSpec(plan.base);
}

/** Parsed --grid text; empty text is the empty (no-op) override. */
GridSpec
parseOverride(const std::string &text)
{
    return text.empty() ? GridSpec{} : GridSpec::parse(text);
}

} // namespace

SweepSpec
buildExperimentSpec(const Experiment &exp, const RunOptions &run,
                    const std::string &gridOverride)
{
    return expandPlan(exp, run, parseOverride(gridOverride));
}

std::vector<ExperimentOutcome>
runExperiments(const std::vector<ExperimentRequest> &requests,
               const ExperimentRunConfig &config, SweepStats *stats)
{
    const GridSpec over = parseOverride(config.gridOverride);
    std::vector<SweepSpec> specs;
    std::vector<std::size_t> swept; // request index of each spec
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Experiment &exp = *requests[i].experiment;
        if (!exp.setup)
            continue;
        specs.push_back(expandPlan(exp, requests[i].run, over));
        swept.push_back(i);
    }
    auto sweeps = runSweeps(specs, config.threads, stats);

    std::vector<ExperimentOutcome> outcomes(requests.size());
    for (std::size_t k = 0; k < swept.size(); ++k) {
        ExperimentOutcome &outcome = outcomes[swept[k]];
        outcome.hasSweep = true;
        outcome.spec = std::move(specs[k]);
        outcome.sweep = std::move(sweeps[k]);
    }

    for (std::size_t i = 0; i < requests.size(); ++i) {
        ExperimentOutcome &outcome = outcomes[i];
        ExperimentContext ctx;
        ctx.run = requests[i].run;
        if (outcome.hasSweep) {
            ctx.spec = &outcome.spec;
            ctx.sweep = &outcome.sweep;
        }
        outcome.tables = requests[i].experiment->render(ctx);
    }
    return outcomes;
}

ExperimentOutcome
runExperiment(const Experiment &exp, const RunOptions &run,
              const ExperimentRunConfig &config)
{
    return std::move(runExperiments({{&exp, run}}, config).front());
}

void
addFidelityFlags(Cli &cli)
{
    cli.addDouble("sample", -1.0,
                  "fraction of tiles simulated per layer "
                  "(-1 = the experiment's default)");
    cli.addInt("rowcap", -1,
               "max activation rows simulated per layer "
               "(-1 = the experiment's default)");
    cli.addInt("seed", 1, "tensor generation seed");
    cli.addDouble("lanebias", 0.5,
                  "weight lane-imbalance depth (see sparsity.hh)");
}

RunOptions
resolveFidelity(const Cli &cli, double default_sample,
                std::int64_t default_rowcap)
{
    RunOptions run;
    const double sample = cli.getDouble("sample");
    run.sim.sampleFraction = sample == -1.0 ? default_sample : sample;
    run.sim.minSampledTiles = defaultMinSampledTiles;
    const auto rowcap = cli.getInt("rowcap");
    run.rowCap = rowcap == -1 ? default_rowcap : rowcap;
    const auto seed = cli.getInt("seed");
    if (seed < 0)
        fatal("--seed must be non-negative, got ", seed);
    run.seed = static_cast<std::uint64_t>(seed);
    run.weightLaneBias = cli.getDouble("lanebias");
    return run;
}

int
resolveThreads(const Cli &cli)
{
    const auto threads = cli.getInt("threads");
    if (threads < 1 || threads > maxThreads)
        fatal("--threads must be in 1..", maxThreads, ", got ", threads);
    return static_cast<int>(threads);
}

int
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

} // namespace griffin
