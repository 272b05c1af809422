#include "runtime/grid.hh"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <system_error>

#include "arch/category.hh"
#include "arch/presets.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "workloads/network.hh"

namespace griffin {

namespace {

/** How an axis's value tokens are typed and applied. */
enum class AxisKind
{
    Arch,     ///< replaces SweepSpec::archs (archByName)
    Network,  ///< replaces SweepSpec::networks (networkByName)
    Category, ///< replaces SweepSpec::categories (categoryFromString)
    Double,   ///< RunOptions double field
    Int,      ///< RunOptions integer field
    Bool,     ///< RunOptions bool field
    Schedule  ///< RunOptions SchedulePolicy field
};

struct AxisDesc
{
    const char *name;
    AxisKind kind;
    /** Write one parsed value into a RunOptions (numeric/bool axes). */
    void (*apply)(RunOptions &, const std::string &);
};

double
parseDoubleToken(const std::string &token)
{
    double v = 0.0;
    const auto res =
        std::from_chars(token.data(), token.data() + token.size(), v);
    if (res.ec != std::errc{} || res.ptr != token.data() + token.size())
        fatal("grid value '", token, "' is not a number");
    return v;
}

std::int64_t
parseIntToken(const std::string &token)
{
    std::int64_t v = 0;
    const auto res =
        std::from_chars(token.data(), token.data() + token.size(), v);
    if (res.ec != std::errc{} || res.ptr != token.data() + token.size())
        fatal("grid value '", token, "' is not an integer");
    return v;
}

/** An integer token in [0, max]; the diagnostic names the axis. */
std::int64_t
parseNonNegativeIntToken(const std::string &token, const char *axis,
                         std::int64_t max)
{
    const auto v = parseIntToken(token);
    if (v < 0 || v > max)
        fatal("grid value '", token, "' on axis '", axis,
              "' is outside 0..", max);
    return v;
}

bool
parseBoolToken(const std::string &token)
{
    if (token == "true" || token == "on" || token == "1")
        return true;
    if (token == "false" || token == "off" || token == "0")
        return false;
    fatal("grid value '", token,
          "' is not a boolean (true/false/on/off/1/0)");
}

const AxisDesc kAxes[] = {
    {"arch", AxisKind::Arch, nullptr},
    {"network", AxisKind::Network, nullptr},
    {"category", AxisKind::Category, nullptr},
    {"weight_lane_bias", AxisKind::Double,
     [](RunOptions &o, const std::string &v) {
         o.weightLaneBias = parseDoubleToken(v);
     }},
    {"act_run_length", AxisKind::Double,
     [](RunOptions &o, const std::string &v) {
         o.actRunLength = parseDoubleToken(v);
     }},
    {"sample_fraction", AxisKind::Double,
     [](RunOptions &o, const std::string &v) {
         o.sim.sampleFraction = parseDoubleToken(v);
     }},
    {"row_cap", AxisKind::Int,
     [](RunOptions &o, const std::string &v) {
         o.rowCap = parseIntToken(v);
     }},
    {"seed", AxisKind::Int,
     [](RunOptions &o, const std::string &v) {
         o.seed = static_cast<std::uint64_t>(
             parseNonNegativeIntToken(v, "seed", INT64_MAX));
     }},
    {"enforce_dram_bound", AxisKind::Bool,
     [](RunOptions &o, const std::string &v) {
         o.enforceDramBound = parseBoolToken(v);
     }},
    {"schedule_policy", AxisKind::Schedule,
     [](RunOptions &o, const std::string &v) {
         o.schedulePolicy = schedulePolicyFromString(v);
     }},
    {"sram_budget_kb", AxisKind::Int,
     [](RunOptions &o, const std::string &v) {
         // Checked before the multiply, which must not overflow.
         o.sramBudgetBytes =
             parseNonNegativeIntToken(v, "sram_budget_kb", INT64_MAX / 1024) *
             1024;
     }},
};

const AxisDesc &
findAxis(const std::string &name)
{
    for (const auto &desc : kAxes)
        if (name == desc.name)
            return desc;
    const auto names = GridSpec::axisNames();
    std::string valid;
    for (const auto &n : names)
        valid += (valid.empty() ? "" : ", ") + n;
    fatal("unknown grid axis '", name, "'; did you mean '",
          nearestName(name, names), "'? (valid axes: ", valid, ")");
}

bool
isNumeric(AxisKind kind)
{
    return kind == AxisKind::Double || kind == AxisKind::Int;
}

[[noreturn]] void
tooManyValues(const AxisDesc &desc, const std::string &token)
{
    fatal("range '", token, "' on axis '", desc.name,
          "' expands to more than ", maxGridAxisValues, " values");
}

/**
 * lo, lo + step, ... up to hi inclusive (lo <= hi, step > 0), counted
 * before anything is built.
 */
std::vector<std::string>
intRange(const AxisDesc &desc, const std::string &token, std::int64_t lo,
         std::int64_t hi, std::int64_t step)
{
    // Unsigned arithmetic: hi - lo and lo + i * step stay defined at the
    // int64 extremes, where the signed forms overflow.
    const auto ulo = static_cast<std::uint64_t>(lo);
    const auto ustep = static_cast<std::uint64_t>(step);
    const std::uint64_t steps =
        (static_cast<std::uint64_t>(hi) - ulo) / ustep;
    if (!(steps < maxGridAxisValues))
        tooManyValues(desc, token);
    std::vector<std::string> out;
    for (std::uint64_t i = 0; i <= steps; ++i)
        out.push_back(
            std::to_string(static_cast<std::int64_t>(ulo + i * ustep)));
    return out;
}

/**
 * Expand one value token of a numeric axis: "a..b" inclusive integer
 * range, "lo:hi:step" inclusive stepped range, or a single literal.
 * Values are checked by the axis's own parser afterwards.
 */
std::vector<std::string>
expandNumericToken(const AxisDesc &desc, const std::string &token)
{
    const auto dots = token.find("..");
    if (dots != std::string::npos) {
        if (desc.kind != AxisKind::Int)
            fatal("malformed range '", token, "' on axis '", desc.name,
                  "': '..' ranges are integer-only; use "
                  "<lo>:<hi>:<step> on a real-valued axis");
        const auto lo_s = token.substr(0, dots);
        const auto hi_s = token.substr(dots + 2);
        if (lo_s.empty() || hi_s.empty())
            fatal("malformed range '", token, "' on axis '", desc.name,
                  "': expected <lo>..<hi>");
        const auto lo = parseIntToken(lo_s);
        const auto hi = parseIntToken(hi_s);
        if (lo > hi)
            fatal("malformed range '", token, "' on axis '", desc.name,
                  "': lower bound exceeds upper bound");
        return intRange(desc, token, lo, hi, 1);
    }
    if (token.find(':') != std::string::npos) {
        const auto parts = splitList(token, ':');
        if (parts.size() != 3)
            fatal("malformed range '", token, "' on axis '", desc.name,
                  "': expected <lo>:<hi>:<step>");
        if (desc.kind == AxisKind::Int) {
            const auto lo = parseIntToken(parts[0]);
            const auto hi = parseIntToken(parts[1]);
            const auto step = parseIntToken(parts[2]);
            if (step <= 0 || lo > hi)
                fatal("malformed range '", token, "' on axis '",
                      desc.name,
                      "': need step > 0 and lo <= hi");
            return intRange(desc, token, lo, hi, step);
        }
        const auto lo = parseDoubleToken(parts[0]);
        const auto hi = parseDoubleToken(parts[1]);
        const auto step = parseDoubleToken(parts[2]);
        if (!(step > 0.0) || lo > hi)
            fatal("malformed range '", token, "' on axis '", desc.name,
                  "': need step > 0 and lo <= hi");
        // Integer stepping (lo + i*step) avoids accumulation drift; the
        // epsilon keeps hi inclusive when (hi-lo) is a near-exact
        // multiple of step (0:1:0.25 ends at 1).  The negated test also
        // rejects a NaN or infinite step count.
        const double steps = std::floor((hi - lo) / step + 1e-9);
        if (!(steps < static_cast<double>(maxGridAxisValues)))
            tooManyValues(desc, token);
        std::vector<std::string> out;
        for (std::int64_t i = 0; i <= static_cast<std::int64_t>(steps);
             ++i)
            out.push_back(formatShortestDouble(
                lo + static_cast<double>(i) * step));
        return out;
    }
    return {token};
}

/** Validate (and canonicalize, for bools) one non-numeric token. */
std::string
checkLiteralToken(const AxisDesc &desc, const std::string &token)
{
    switch (desc.kind) {
      case AxisKind::Arch:
        archByName(token); // fatal() with known names when unknown
        return token;
      case AxisKind::Network:
        networkByName(token);
        return token;
      case AxisKind::Category:
        categoryFromString(token);
        return token;
      case AxisKind::Bool:
        return parseBoolToken(token) ? "true" : "false";
      case AxisKind::Schedule:
        return toString(schedulePolicyFromString(token));
      default:
        panic("literal check on numeric axis ", desc.name);
    }
}

} // namespace

std::vector<std::string>
GridSpec::axisNames()
{
    std::vector<std::string> names;
    for (const auto &desc : kAxes)
        names.push_back(desc.name);
    return names;
}

bool
GridSpec::has(const std::string &name) const
{
    for (const auto &ax : axes_)
        if (ax.name == name)
            return true;
    return false;
}

GridSpec &
GridSpec::axis(const std::string &name, std::vector<std::string> values)
{
    const AxisDesc &desc = findAxis(name);
    if (has(name))
        fatal("grid axis '", name, "' declared twice");
    ParamAxis ax;
    ax.name = name;
    for (const auto &token : values) {
        const auto t = trim(token);
        if (t.empty())
            continue;
        if (isNumeric(desc.kind)) {
            for (auto &v : expandNumericToken(desc, t)) {
                // Parse now, with the axis's own checks, so a typo or
                // an out-of-range value names its token.
                RunOptions probe;
                desc.apply(probe, v);
                ax.values.push_back(std::move(v));
            }
        } else {
            ax.values.push_back(checkLiteralToken(desc, t));
        }
        if (ax.values.size() > maxGridAxisValues)
            fatal("grid axis '", name, "' has more than ",
                  maxGridAxisValues, " values");
    }
    if (ax.values.empty())
        fatal("grid axis '", name, "' has no values");
    axes_.push_back(std::move(ax));
    return *this;
}

GridSpec &
GridSpec::axis(const std::string &name,
               std::initializer_list<double> values)
{
    std::vector<std::string> tokens;
    for (double v : values)
        tokens.push_back(formatShortestDouble(v));
    return axis(name, std::move(tokens));
}

GridSpec
GridSpec::parse(const std::string &text)
{
    GridSpec grid;
    std::string current_axis;
    std::vector<std::string> current_values;
    auto flush = [&] {
        if (!current_axis.empty())
            grid.axis(current_axis, std::move(current_values));
        current_values.clear();
    };
    for (const auto &piece : splitTopLevel(text, ',')) {
        const auto item = trim(piece);
        if (item.empty())
            continue;
        const auto eq = item.find('=');
        if (eq != std::string::npos) {
            flush();
            current_axis = trim(item.substr(0, eq));
            if (current_axis.empty())
                fatal("grid spec item '", item, "' has no axis name");
            const auto value = trim(item.substr(eq + 1));
            if (!value.empty())
                current_values.push_back(value);
        } else {
            if (current_axis.empty())
                fatal("grid spec value '", item,
                      "' appears before any 'axis=value' item");
            current_values.push_back(item);
        }
    }
    flush();
    // Blank text and bare separators (",") name no axis: an empty
    // override would silently sweep the experiment's own grid.
    if (grid.axes_.empty())
        fatal("empty grid spec");
    return grid;
}

SweepSpec
GridSpec::toSweepSpec(const SweepSpec &base) const
{
    if (base.optionVariants.size() != 1)
        fatal("grid expansion needs exactly one base RunOptions "
              "variant, got ",
              base.optionVariants.size());

    SweepSpec spec = base;
    spec.optionCoords.clear();

    // Cartesian product of the RunOptions axes in declaration order:
    // the first axis varies slowest, so expandSweep()'s (options,
    // arch, network, category) nesting visits the grid exactly as a
    // serial nested loop over the declared axes would.
    std::vector<RunOptions> variants = base.optionVariants;
    std::vector<std::vector<AxisCoordinate>> coords{{}};
    for (const auto &ax : axes_) {
        const AxisDesc &desc = findAxis(ax.name);
        switch (desc.kind) {
          case AxisKind::Arch:
            spec.archs.clear();
            for (const auto &v : ax.values)
                spec.archs.push_back(archByName(v));
            break;
          case AxisKind::Network:
            spec.networks.clear();
            for (const auto &v : ax.values)
                spec.networks.push_back(networkByName(v));
            break;
          case AxisKind::Category:
            spec.categories.clear();
            for (const auto &v : ax.values)
                spec.categories.push_back(categoryFromString(v));
            break;
          default: {
            // Counted before it is built, so it cannot overflow.
            if (variants.size() > maxGridVariants / ax.values.size())
                fatal("grid expands to more than ", maxGridVariants,
                      " RunOptions variants");
            std::vector<RunOptions> next_variants;
            std::vector<std::vector<AxisCoordinate>> next_coords;
            next_variants.reserve(variants.size() * ax.values.size());
            next_coords.reserve(variants.size() * ax.values.size());
            for (std::size_t i = 0; i < variants.size(); ++i) {
                for (const auto &v : ax.values) {
                    RunOptions opt = variants[i];
                    desc.apply(opt, v);
                    next_variants.push_back(opt);
                    auto c = coords[i];
                    c.push_back({ax.name, v});
                    next_coords.push_back(std::move(c));
                }
            }
            variants = std::move(next_variants);
            coords = std::move(next_coords);
            break;
          }
        }
    }
    std::size_t jobs = variants.size();
    for (const std::size_t n :
         {spec.archs.size(), spec.networks.size(), spec.categories.size()}) {
        if (n != 0 && jobs > maxGridJobs / n)
            fatal("grid expands to more than ", maxGridJobs, " jobs");
        jobs *= n;
    }
    spec.optionVariants = std::move(variants);
    spec.optionCoords = std::move(coords);
    spec.validate();
    return spec;
}

} // namespace griffin
