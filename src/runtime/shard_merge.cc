#include "runtime/shard_merge.hh"

#include <fstream>
#include <map>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace griffin {

namespace {

DnnCategory
categoryFromName(const std::string &name, const std::string &where)
{
    for (const DnnCategory cat : allCategories)
        if (name == toString(cat))
            return cat;
    fatal(where, ": unknown category '", name, "'");
}

const JsonValue &
requireMember(const JsonValue &object, const std::string &key,
              const std::string &where)
{
    const JsonValue *value = object.find(key);
    if (value == nullptr)
        fatal(where, ": row is missing the '", key, "' field");
    return *value;
}

/** One .jsonl row back into the ResultRow the sink serialized. */
ResultRow
parseRow(const JsonValue &doc, const std::string &where)
{
    if (!doc.isObject())
        fatal(where, ": expected a JSON object per line");
    ResultRow row;
    const JsonValue *experiment = doc.find("experiment");
    if (experiment != nullptr)
        row.experiment = experiment->asString();

    NetworkResult &r = row.result;
    r.network = requireMember(doc, "network", where).asString();
    r.arch = requireMember(doc, "arch", where).asString();
    r.category = categoryFromName(
        requireMember(doc, "category", where).asString(), where);
    r.denseCycles = requireMember(doc, "dense_cycles", where).asInt();
    r.totalCycles = requireMember(doc, "total_cycles", where).asInt();
    r.speedup = requireMember(doc, "speedup", where).asDouble();
    r.topsPerWatt =
        requireMember(doc, "tops_per_watt", where).asDouble();
    r.topsPerMm2 = requireMember(doc, "tops_per_mm2", where).asDouble();
    // Opt-in schedule fields (schedule-aware runs only); the label's
    // presence implies the other three.
    const JsonValue *schedule = doc.find("schedule");
    if (schedule != nullptr) {
        r.scheduleLabel = schedule->asString();
        r.peakSramBytes =
            requireMember(doc, "peak_sram_bytes", where).asInt();
        r.spillCycles =
            requireMember(doc, "spill_cycles", where).asInt();
        r.recomputeCycles =
            requireMember(doc, "recompute_cycles", where).asInt();
    }
    const JsonValue &layers = requireMember(doc, "layers", where);
    if (!layers.isArray())
        fatal(where, ": 'layers' is not an array");
    for (const JsonValue &layer : layers.items) {
        LayerResult lr;
        lr.name = requireMember(layer, "name", where).asString();
        lr.denseCycles =
            requireMember(layer, "dense_cycles", where).asInt();
        lr.computeCycles =
            requireMember(layer, "compute_cycles", where).asInt();
        lr.dramCycles =
            requireMember(layer, "dram_cycles", where).asInt();
        lr.totalCycles =
            requireMember(layer, "total_cycles", where).asInt();
        lr.macs = requireMember(layer, "macs", where).asInt();
        lr.speedup = requireMember(layer, "speedup", where).asDouble();
        r.layers.push_back(std::move(lr));
    }

    const JsonValue *options = doc.find("options");
    if (options != nullptr) {
        row.annotated = true;
        RunOptions &opt = row.options;
        opt.seed = requireMember(*options, "seed", where).asUint();
        opt.rowCap = requireMember(*options, "row_cap", where).asInt();
        opt.weightLaneBias =
            requireMember(*options, "weight_lane_bias", where)
                .asDouble();
        opt.actRunLength =
            requireMember(*options, "act_run_length", where).asDouble();
        opt.sim.sampleFraction =
            requireMember(*options, "sample_fraction", where)
                .asDouble();
        opt.enforceDramBound =
            requireMember(*options, "enforce_dram_bound", where)
                .asBool();
        // Not serialized; resolveFidelity applies this floor to every
        // driver run, so the reconstruction shares its constant.
        opt.sim.minSampledTiles = defaultMinSampledTiles;
    }
    const JsonValue *coords = doc.find("coords");
    if (coords != nullptr) {
        if (!coords->isObject())
            fatal(where, ": 'coords' is not an object");
        for (const auto &[axis, value] : coords->members)
            row.coords.push_back(AxisCoordinate{axis, value.asString()});
    }
    return row;
}

template <typename T>
std::string
mismatchText(const char *field, const T &got, const T &expected)
{
    std::ostringstream os;
    os << field << " " << got << " does not match the expanded job's "
       << expected;
    return os.str();
}

/** The serialized RunOptions fields, compared one by one so coverage
 *  errors name the differing knob. */
bool
checkOptionsMatch(const RunOptions &expected, const RunOptions &got,
                  std::string &error)
{
    if (expected.seed != got.seed) {
        error = mismatchText("seed", got.seed, expected.seed);
        return false;
    }
    if (expected.rowCap != got.rowCap) {
        error = mismatchText("row_cap", got.rowCap, expected.rowCap);
        return false;
    }
    if (expected.weightLaneBias != got.weightLaneBias) {
        error = mismatchText("weight_lane_bias", got.weightLaneBias,
                             expected.weightLaneBias);
        return false;
    }
    if (expected.actRunLength != got.actRunLength) {
        error = mismatchText("act_run_length", got.actRunLength,
                             expected.actRunLength);
        return false;
    }
    if (expected.sim.sampleFraction != got.sim.sampleFraction) {
        error = mismatchText("sample_fraction",
                             got.sim.sampleFraction,
                             expected.sim.sampleFraction);
        return false;
    }
    if (expected.enforceDramBound != got.enforceDramBound) {
        error = "enforce_dram_bound does not match the expanded "
                "job's";
        return false;
    }
    return true;
}

/**
 * One --out .jsonl line back into the ResultRow the sink serialized.
 * fatal() on malformed JSON or missing/mistyped fields, naming `where`
 * (a "file:line" locator).
 */
ResultRow
parseResultRowLine(const std::string &line, const std::string &where)
{
    JsonValue doc;
    std::string error;
    if (!parseJson(line, doc, error))
        fatal(where, ": malformed JSON (", error,
              ") — is this a --out .jsonl document?");
    return parseRow(doc, where);
}

/**
 * Check that `row` embodies exactly the expanded `job` of `spec`: same
 * network, architecture, category, grid coordinates, and serialized
 * RunOptions fields.  Returns false with `error` naming the first
 * divergent field.
 */
bool
validateRowAgainstJob(const ResultRow &row, const SweepSpec &spec,
                      const SweepJob &job, std::string &error)
{
    const auto &net = spec.networks[job.networkIndex];
    if (row.result.network != net.name) {
        error = "network '" + row.result.network +
                "' does not match the expanded job's '" + net.name +
                "' — rows out of order or overlapping?";
        return false;
    }
    const auto &arch = spec.archs[job.archIndex];
    if (row.result.arch != arch.name) {
        error = "arch '" + row.result.arch +
                "' does not match the expanded job's '" + arch.name +
                "' — rows out of order or overlapping?";
        return false;
    }
    const auto cat = spec.categories[job.categoryIndex];
    if (row.result.category != cat) {
        error = std::string("category '") +
                toString(row.result.category) +
                "' does not match the expanded job's '" +
                toString(cat) + "'";
        return false;
    }
    if (row.coords != job.coords) {
        error = "grid coordinates (" + coordsLabel(row.coords) +
                ") do not match the expanded job's (" +
                coordsLabel(job.coords) +
                ") — was the run given a --grid override? pass the "
                "same text";
        return false;
    }
    return checkOptionsMatch(job.options, row.options, error);
}

} // namespace

std::vector<ResultRow>
readShardRows(const std::vector<std::string> &paths)
{
    std::vector<ResultRow> rows;
    for (const auto &path : paths) {
        std::ifstream is(path);
        if (!is)
            fatal("cannot open shard document '", path, "'");
        std::string line;
        std::size_t line_no = 0;
        while (std::getline(is, line)) {
            ++line_no;
            if (line.empty())
                continue;
            const std::string where =
                path + ":" + std::to_string(line_no);
            ResultRow row = parseResultRowLine(line, where);
            if (row.experiment.empty())
                fatal(where, ": row carries no experiment label; "
                             "merge validates against the experiment "
                             "registry and needs griffin_bench-"
                             "produced documents");
            rows.push_back(std::move(row));
        }
    }
    if (rows.empty())
        fatal("shard documents contain no result rows");
    return rows;
}

std::vector<MergedExperiment>
mergeShardRows(const std::vector<ResultRow> &rows,
               const std::string &gridOverride)
{
    // Group by experiment, first-appearance order.  A multi-experiment
    // sharded run interleaves experiments across shard files (each file
    // holds every experiment's slice); grouping re-concatenates each
    // experiment's slices in file = shard order, which is exactly the
    // submission order positional validation expects.
    std::map<std::string, std::size_t> group_of;
    std::vector<std::string> names;
    std::vector<std::vector<const ResultRow *>> groups;
    for (const ResultRow &row : rows) {
        auto [it, fresh] =
            group_of.emplace(row.experiment, groups.size());
        if (fresh) {
            groups.emplace_back();
            names.push_back(row.experiment);
        }
        groups[it->second].push_back(&row);
    }

    std::vector<MergedExperiment> merged;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const auto &group = groups[g];
        MergedExperiment me;
        me.experiment = findExperiment(names[g]);
        if (me.experiment == nullptr)
            fatal("rows name experiment '", names[g],
                  "' which is not in this binary's registry");

        // The shards' base fidelity: every serialized field either
        // matches the driver's resolved RunOptions or is re-derived by
        // a grid axis during expansion, so the first row's options
        // reconstruct it (validated below for every row).
        if (!group.front()->annotated)
            fatal("experiment '", names[g],
                  "': rows carry no options; cannot reconstruct the "
                  "shard run's fidelity");
        me.run = group.front()->options;

        me.spec =
            buildExperimentSpec(*me.experiment, me.run, gridOverride);
        auto jobs = expandSweep(me.spec);
        if (jobs.size() != group.size())
            fatal("experiment '", names[g], "': shard documents hold ",
                  group.size(), " rows but the grid expands to ",
                  jobs.size(),
                  " jobs — a shard file is missing, duplicated, or was "
                  "run with different --grid/fidelity flags");
        std::vector<NetworkResult> results;
        results.reserve(group.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const SweepJob &job = jobs[i];
            const ResultRow &row = *group[i];
            const std::string where = "experiment '" + names[g] +
                                      "', merged row " +
                                      std::to_string(i);
            std::string error;
            if (!validateRowAgainstJob(row, me.spec, job, error))
                fatal(where, ": ", error);
            results.push_back(row.result);
        }
        me.sweep = SweepResult(std::move(jobs), std::move(results));
        merged.push_back(std::move(me));
    }
    return merged;
}

} // namespace griffin
