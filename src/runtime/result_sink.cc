#include "runtime/result_sink.hh"

#include <cstdio>
#include <fstream>
#include <iterator>

#include "common/logging.hh"
#include "common/strings.hh"

namespace griffin {

namespace {

std::string
indentStr(int level)
{
    return std::string(static_cast<std::size_t>(level) * 2, ' ');
}

/** The "options" JSON object: every RunOptions field a grid axis can
 *  address, fixed key order. */
void
writeOptionsObject(std::ostream &os, const RunOptions &opt)
{
    os << "{\"seed\": " << opt.seed << ", \"row_cap\": " << opt.rowCap
       << ", \"weight_lane_bias\": " << jsonNumber(opt.weightLaneBias)
       << ", \"act_run_length\": " << jsonNumber(opt.actRunLength)
       << ", \"sample_fraction\": "
       << jsonNumber(opt.sim.sampleFraction)
       << ", \"enforce_dram_bound\": "
       << (opt.enforceDramBound ? "true" : "false") << "}";
}

void
writeCoordsObject(std::ostream &os,
                  const std::vector<AxisCoordinate> &coords)
{
    os << "{";
    for (std::size_t i = 0; i < coords.size(); ++i) {
        if (i != 0)
            os << ", ";
        os << '"' << jsonEscape(coords[i].axis) << "\": \""
           << jsonEscape(coords[i].value) << '"';
    }
    os << "}";
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    // Shortest round-tripping decimal form, locale-independent —
    // printf's %g would honour a comma LC_NUMERIC separator and emit
    // invalid JSON.
    return formatShortestDouble(v);
}

namespace {

/**
 * One result as a JSON object; `row` adds experiment/options/coords
 * fields.  Compact mode (writeJsonLines) drops every newline and
 * indent so the object fits one line; the key order is identical.
 */
void
writeJsonRow(std::ostream &os, const NetworkResult &result,
             const ResultRow *row, int indent, bool compact = false)
{
    const char *nl = compact ? "" : "\n";
    const std::string in0 = compact ? "" : indentStr(indent);
    const std::string in1 = compact ? "" : indentStr(indent + 1);
    const std::string in2 = compact ? "" : indentStr(indent + 2);
    os << in0 << "{" << nl;
    if (row != nullptr && !row->experiment.empty())
        os << in1 << "\"experiment\": \"" << jsonEscape(row->experiment)
           << "\"," << nl;
    os << in1 << "\"network\": \"" << jsonEscape(result.network)
       << "\"," << nl
       << in1 << "\"arch\": \"" << jsonEscape(result.arch) << "\"," << nl
       << in1 << "\"category\": \"" << toString(result.category)
       << "\"," << nl;
    if (row != nullptr && row->annotated) {
        os << in1 << "\"options\": ";
        writeOptionsObject(os, row->options);
        os << "," << nl;
        if (!row->coords.empty()) {
            os << in1 << "\"coords\": ";
            writeCoordsObject(os, row->coords);
            os << "," << nl;
        }
    }
    os << in1 << "\"dense_cycles\": " << result.denseCycles << ","
       << nl
       << in1 << "\"total_cycles\": " << result.totalCycles << ","
       << nl
       << in1 << "\"speedup\": " << jsonNumber(result.speedup) << ","
       << nl
       << in1 << "\"tops_per_watt\": " << jsonNumber(result.topsPerWatt)
       << "," << nl
       << in1 << "\"tops_per_mm2\": " << jsonNumber(result.topsPerMm2)
       << "," << nl;
    // Schedule fields are opt-in: only runs that priced a schedule
    // emit them, so default artifacts stay byte-identical.
    if (!result.scheduleLabel.empty()) {
        os << in1 << "\"schedule\": \""
           << jsonEscape(result.scheduleLabel) << "\"," << nl
           << in1 << "\"peak_sram_bytes\": " << result.peakSramBytes
           << "," << nl
           << in1 << "\"spill_cycles\": " << result.spillCycles << ","
           << nl
           << in1 << "\"recompute_cycles\": " << result.recomputeCycles
           << "," << nl;
    }
    os << in1 << "\"layers\": [";
    for (std::size_t i = 0; i < result.layers.size(); ++i) {
        const auto &l = result.layers[i];
        os << (i == 0 ? nl : (compact ? "," : ",\n"))
           << in2 << "{\"name\": \"" << jsonEscape(l.name) << "\", "
           << "\"dense_cycles\": " << l.denseCycles << ", "
           << "\"compute_cycles\": " << l.computeCycles << ", "
           << "\"dram_cycles\": " << l.dramCycles << ", "
           << "\"total_cycles\": " << l.totalCycles << ", "
           << "\"macs\": " << l.macs << ", "
           << "\"speedup\": " << jsonNumber(l.speedup) << "}";
    }
    if (!result.layers.empty())
        os << nl << in1;
    os << "]" << nl << in0 << "}";
}

} // namespace

void
writeJson(std::ostream &os, const NetworkResult &result, int indent)
{
    writeJsonRow(os, result, nullptr, indent);
}

void
writeJson(std::ostream &os, const std::vector<NetworkResult> &results)
{
    os << "[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        os << (i == 0 ? "\n" : ",\n");
        writeJson(os, results[i], 1);
    }
    if (!results.empty())
        os << "\n";
    os << "]\n";
}

std::vector<ResultRow>
sweepRows(const SweepResult &sweep, const std::string &experiment)
{
    GRIFFIN_ASSERT(sweep.jobs().size() == sweep.results().size(),
                   "sweep jobs/results length mismatch");
    std::vector<ResultRow> rows;
    rows.reserve(sweep.results().size());
    for (std::size_t i = 0; i < sweep.results().size(); ++i) {
        ResultRow row;
        row.result = sweep.results()[i];
        row.annotated = true;
        row.options = sweep.jobs()[i].options;
        row.coords = sweep.jobs()[i].coords;
        row.experiment = experiment;
        rows.push_back(std::move(row));
    }
    return rows;
}

void
writeJson(std::ostream &os, const std::vector<ResultRow> &rows)
{
    os << "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        os << (i == 0 ? "\n" : ",\n");
        writeJsonRow(os, rows[i].result, &rows[i], 1);
    }
    if (!rows.empty())
        os << "\n";
    os << "]\n";
}

void
writeJson(std::ostream &os, const SweepResult &sweep)
{
    writeJson(os, sweepRows(sweep));
}

void
writeCsv(std::ostream &os, const std::vector<NetworkResult> &results)
{
    os << "network,arch,category,layer,dense_cycles,compute_cycles,"
          "dram_cycles,total_cycles,macs,speedup\n";
    for (const auto &r : results) {
        const auto prefix = csvEscape(r.network) + ',' +
                            csvEscape(r.arch) + ',' +
                            toString(r.category) + ',';
        for (const auto &l : r.layers) {
            os << prefix << csvEscape(l.name) << ',' << l.denseCycles
               << ',' << l.computeCycles << ',' << l.dramCycles << ','
               << l.totalCycles << ',' << l.macs << ','
               << jsonNumber(l.speedup) << '\n';
        }
        os << prefix << "total," << r.denseCycles << ",,,"
           << r.totalCycles << ",," << jsonNumber(r.speedup) << '\n';
    }
}

namespace {

/** The per-row options cells ("seed,...,enforce_dram_bound"), empty
 *  cells when the row is unannotated. */
std::string
optionsCsvCells(const ResultRow &row)
{
    if (!row.annotated)
        return ",,,,,";
    const auto &opt = row.options;
    return std::to_string(opt.seed) + ',' + std::to_string(opt.rowCap) +
           ',' + jsonNumber(opt.weightLaneBias) + ',' +
           jsonNumber(opt.actRunLength) + ',' +
           jsonNumber(opt.sim.sampleFraction) + ',' +
           (opt.enforceDramBound ? "true" : "false");
}

} // namespace

void
writeCsv(std::ostream &os, const std::vector<ResultRow> &rows)
{
    // The experiment column only appears when some row is labeled, so
    // unlabeled documents (library sweeps) keep their layout.
    bool labeled = false;
    bool scheduled = false;
    for (const auto &row : rows) {
        labeled = labeled || !row.experiment.empty();
        scheduled = scheduled || !row.result.scheduleLabel.empty();
    }
    if (labeled)
        os << "experiment,";
    os << "network,arch,category,seed,row_cap,weight_lane_bias,"
          "act_run_length,sample_fraction,enforce_dram_bound,layer,"
          "dense_cycles,compute_cycles,dram_cycles,total_cycles,macs,"
          "speedup";
    // Schedule columns are whole-network quantities; they only appear
    // when some row priced a schedule.
    if (scheduled)
        os << ",schedule,peak_sram_bytes,spill_cycles,recompute_cycles";
    os << '\n';
    for (const auto &row : rows) {
        const auto &r = row.result;
        const auto prefix =
            (labeled ? csvEscape(row.experiment) + ',' : std::string()) +
            csvEscape(r.network) + ',' + csvEscape(r.arch) + ',' +
            toString(r.category) + ',' + optionsCsvCells(row) + ',';
        // The total row carries the schedule columns, layer rows leave
        // the cells empty.
        for (const auto &l : r.layers) {
            os << prefix << csvEscape(l.name) << ',' << l.denseCycles
               << ',' << l.computeCycles << ',' << l.dramCycles << ','
               << l.totalCycles << ',' << l.macs << ','
               << jsonNumber(l.speedup);
            if (scheduled)
                os << ",,,,";
            os << '\n';
        }
        os << prefix << "total," << r.denseCycles << ",,,"
           << r.totalCycles << ",," << jsonNumber(r.speedup);
        if (scheduled) {
            if (r.scheduleLabel.empty()) {
                os << ",,,,";
            } else {
                os << ',' << csvEscape(r.scheduleLabel) << ','
                   << r.peakSramBytes << ',' << r.spillCycles << ','
                   << r.recomputeCycles;
            }
        }
        os << '\n';
    }
}

void
writeJsonLines(std::ostream &os, const std::vector<ResultRow> &rows)
{
    for (const auto &row : rows) {
        writeJsonRow(os, row.result, &row, 0, /*compact=*/true);
        os << '\n';
    }
}

void
writeTableJsonLine(std::ostream &os, const Table &table)
{
    os << "{\"table\": \"" << jsonEscape(table.title()) << "\", "
       << "\"columns\": [";
    for (std::size_t c = 0; c < table.cols(); ++c) {
        if (c != 0)
            os << ", ";
        os << '"' << jsonEscape(table.headers()[c]) << '"';
    }
    os << "], \"rows\": [";
    for (std::size_t r = 0; r < table.rows(); ++r) {
        os << (r == 0 ? "[" : ", [");
        for (std::size_t c = 0; c < table.cols(); ++c) {
            if (c != 0)
                os << ", ";
            os << '"' << jsonEscape(table.cell(r, c)) << '"';
        }
        os << "]";
    }
    os << "]}\n";
}

void
writeMetricsJsonLine(std::ostream &os, const SweepStats &stats,
                     const std::string &label)
{
    os << "{\"" << jsonEscape(label) << "\": {";
    const char *sep = "";
    for (const auto &[name, value] : stats) {
        os << sep << '"' << jsonEscape(name) << "\": " << jsonNumber(value);
        sep = ", ";
    }
    os << "}}\n";
}

ResultSink::ResultSink(std::string path) : path_(std::move(path))
{
    if (path_.empty())
        fatal("result sink needs a non-empty path");
}

void
ResultSink::add(ResultRow row)
{
    rows_.push_back(std::move(row));
}

void
ResultSink::add(const SweepResult &sweep, const std::string &experiment)
{
    auto rows = sweepRows(sweep, experiment);
    rows_.insert(rows_.end(), std::make_move_iterator(rows.begin()),
                 std::make_move_iterator(rows.end()));
}

namespace {

bool
hasSuffix(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

} // namespace

void
ResultSink::flush() const
{
    std::ofstream os(path_);
    if (!os)
        fatal("cannot open result sink path '", path_, "'");
    if (hasSuffix(path_, ".csv"))
        writeCsv(os, rows_);
    else if (hasSuffix(path_, ".jsonl"))
        writeJsonLines(os, rows_);
    else
        writeJson(os, rows_);
    // close() flushes: checking before it would miss a failure that
    // only the final flush of a small document reports.
    os.close();
    if (!os)
        fatalRun("write to result sink path '", path_, "' failed");
}

} // namespace griffin
