/**
 * @file
 * Named-axis experiment grids: the declarative face of the sweep
 * runner.
 *
 * A GridSpec is a list of ParamAxis entries, each addressing one sweep
 * dimension by name — the three identity axes (`arch`, `network`,
 * `category`) plus the RunOptions fields sparse-optimization studies
 * sweep (`weight_lane_bias`, `act_run_length`, `sample_fraction`,
 * `row_cap`, `seed`, `enforce_dram_bound`).  It replaces hand-built
 * `std::vector<RunOptions>` variant lists: the grid expands onto a
 * SweepSpec, and every expanded variant carries its AxisCoordinate
 * record, so result rows written by the sinks are self-describing.
 *
 * Build one from the compact text syntax (the `--grid` flag):
 *
 *   weight_lane_bias=0:1:0.25,seed=1..8,arch=Griffin,Sparse.B*
 *
 * Items are comma-separated; an item containing '=' starts a new axis
 * and items without '=' extend the previous axis's value list (so
 * comma lists of names need no extra quoting).  Separators inside
 * parentheses do not split, so routing-spec architecture names like
 * `B(2,0,0,off)` work as arch values.  Numeric axes accept three value
 * forms: a literal (`0.5`), an inclusive integer range (`1..8`), and
 * an inclusive stepped range (`lo:hi:step`).
 *
 * Or from the builder API:
 *
 *   GridSpec grid;
 *   grid.axis("arch", {"Griffin", "Sparse.B*"})
 *       .axis("category", {"b", "ab"})
 *       .axis("weight_lane_bias", {0.25, 0.75});
 *   SweepSpec spec = grid.toSweepSpec(base);
 *
 * Expansion is a cartesian product in deterministic axis order:
 * RunOptions axes multiply out in declaration order (first axis
 * outermost) into SweepSpec::optionVariants, and expandSweep() then
 * nests (options, arch, network, category) exactly as before — so a
 * grid-driven sweep keeps the runner's bit-identical parallel/serial
 * merge.
 *
 * Every malformed input is a fatal() with a real diagnostic: unknown
 * axis names suggest the nearest valid name, malformed ranges,
 * unparsable or out-of-range values report the offending token, no
 * axis expands past maxGridAxisValues, and no grid past maxGridVariants
 * variants or maxGridJobs jobs.
 */

#ifndef GRIFFIN_RUNTIME_GRID_HH
#define GRIFFIN_RUNTIME_GRID_HH

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "runtime/runner.hh"

namespace griffin {

/**
 * Most values one axis may hold after range expansion.  Far above any
 * real sweep, and low enough that a mistyped range (`seed=1..3e9`)
 * fails at once instead of building billions of value strings.
 */
constexpr std::size_t maxGridAxisValues = 65536;

/**
 * Most RunOptions variants (the product of the RunOptions axes) and
 * jobs (variants x archs x networks x categories) a grid may expand
 * to; the largest checked-in grid has 10 variants and 252 jobs.
 */
constexpr std::size_t maxGridVariants = maxGridAxisValues;
constexpr std::size_t maxGridJobs = std::size_t{1} << 20;

/** One named sweep axis: canonical name + value tokens in sweep order. */
struct ParamAxis
{
    std::string name;
    std::vector<std::string> values;
};

class GridSpec
{
  public:
    GridSpec() = default;

    /** Parse the compact text syntax (see file comment); fatal() with
     *  a diagnostic on any malformed item or on text naming no axis. */
    static GridSpec parse(const std::string &text);

    /**
     * Append one axis.  The name must be a known axis (else fatal()
     * suggests the nearest valid name), may not repeat, and every
     * value token is validated — and range tokens expanded — up front,
     * so errors surface at declaration, not mid-sweep.  Returns *this
     * for chaining.
     */
    GridSpec &axis(const std::string &name,
                   std::vector<std::string> values);

    /** Numeric convenience: axis("weight_lane_bias", {0.25, 0.75}). */
    GridSpec &axis(const std::string &name,
                   std::initializer_list<double> values);

    /** Axes in declaration order (value tokens already expanded). */
    const std::vector<ParamAxis> &axes() const { return axes_; }

    bool has(const std::string &name) const;

    /**
     * Expand onto a sweep spec.  `base` supplies every axis the grid
     * does not name: its archs/networks/categories survive unless an
     * `arch`/`network`/`category` axis overrides them, and its single
     * RunOptions variant (exactly one, or fatal()) seeds the fields
     * the RunOptions axes do not touch.  The result's optionVariants
     * is the cartesian product of the RunOptions axes in declaration
     * order (first axis outermost), with optionCoords recording each
     * variant's (axis, value) coordinates.  fatal() when the expansion
     * would exceed maxGridVariants variants or maxGridJobs jobs.
     */
    SweepSpec toSweepSpec(const SweepSpec &base) const;

    /** All valid axis names, declaration order (for help text). */
    static std::vector<std::string> axisNames();

  private:
    std::vector<ParamAxis> axes_;
};

} // namespace griffin

#endif // GRIFFIN_RUNTIME_GRID_HH
