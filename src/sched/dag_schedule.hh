/**
 * @file
 * Whole-network sequential scheduling over the layer DAG.
 *
 * The accelerator executes one layer at a time (Section II-C runs the
 * dual scheduler per GEMM), so a network schedule is a *sequence* of
 * node executions.  What the sequence controls is on-chip memory: a
 * node's output buffer stays resident from the step that produces it
 * until the step that serves its last consumer, and different
 * topological orders hold very different buffer sets live at once.
 * Inception-style modules are the motivating case — executing all
 * branch *heads* before any branch *tail* releases the concatenated
 * block input before the wide 3x3/5x5 outputs pile up.
 *
 * This header provides:
 *   - a liveness evaluator that prices any schedule, including ones
 *     with recomputation entries,
 *   - an optimizer that minimises peak bytes (exhaustive subset DP on
 *     small graphs, greedy impact-ordered fallback on large ones,
 *     optional recomputation of cheap multi-consumer nodes),
 *   - a text renderer for `griffin_bench describe`.
 *
 * The optimizer and the renderer take networks that pass
 * NetworkSpec::validate() (every edge points to an earlier node, so
 * the graph is acyclic).  Schedules permute *execution*; the node
 * vector itself is never reordered (node order feeds the per-layer
 * simulation seed).
 */

#ifndef GRIFFIN_SCHED_DAG_SCHEDULE_HH
#define GRIFFIN_SCHED_DAG_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/network.hh"

namespace griffin {

/** How RunOptions orders layer execution within a network. */
enum class SchedulePolicy
{
    /** Node-vector order — the historical behaviour and the byte-
     *  identity baseline. */
    Declaration,
    /** Peak-memory-minimising topological order. */
    Optimized,
    /** Optimized, plus recomputation of cheap multi-consumer nodes
     *  when re-running them beats keeping their output resident. */
    OptimizedRecompute,
};

const char *toString(SchedulePolicy policy);

/** Parse "declaration" / "optimized" / "recompute"; fatal() with the
 *  valid set otherwise. */
SchedulePolicy schedulePolicyFromString(const std::string &text);

/**
 * One step of a sequential schedule.  `recompute` marks a repeated
 * production of an already-executed node: its cycles are paid again
 * and its inputs must still be (or be kept) live, but the original
 * output buffer can have been freed in the meantime.
 */
struct ScheduleEntry
{
    std::size_t node = 0;
    bool recompute = false;
};

/** Non-fatal result of pricing a schedule. */
struct ScheduleEval
{
    bool ok = false;
    std::string error;
    /** Max bytes of node output buffers simultaneously live. */
    std::int64_t peakBytes = 0;
    /** Live bytes during each entry (after allocating that entry's
     *  output, before its frees) — the per-step SRAM demand the spill
     *  model compares against the budget. */
    std::vector<std::int64_t> entryLiveBytes;
};

/** A priced sequential schedule. */
struct DagSchedule
{
    std::vector<ScheduleEntry> entries;
    std::int64_t peakBytes = 0;
    std::vector<std::int64_t> entryLiveBytes;
    /** Human tag: "declaration", "optimized(exact)",
     *  "optimized(greedy)", with "+recompute" when the post-pass
     *  inserted entries. */
    std::string label;
};

/**
 * Price a schedule: peak live bytes and per-entry live bytes under
 * last-consumer-frees liveness.  Each consumption binds to the latest
 * prior production of the input node (recomputation-aware); a buffer
 * is freed right after the step serving its last bound consumer, and
 * a production nothing consumes is freed at its own step.  External
 * input (a node with no `inputs`) is streamed and never counted.
 * Returns ok=false with a message on malformed schedules (missing or
 * duplicated first productions, consumption before production,
 * mis-flagged recompute entries).
 */
ScheduleEval evaluateSchedule(const NetworkSpec &net,
                              const std::vector<ScheduleEntry> &entries);

/** The node-vector-order schedule, priced. */
DagSchedule declarationSchedule(const NetworkSpec &net);

/**
 * Minimise peak bytes over sequential schedules.  Small graphs are
 * solved exactly by dynamic programming over executed subsets; past a
 * state budget the search falls back to a greedy impact-ordered
 * topological order.  With `allowRecompute`, a post-pass re-executes
 * cheap (<=5% of network dense cycles) multi-consumer nodes before
 * their late consumers when that strictly lowers the peak.  Never
 * returns a schedule worse than declaration order.
 */
DagSchedule optimizeSchedule(const NetworkSpec &net, bool allowRecompute);

/** Schedule for a policy: declaration order or the optimizer. */
DagSchedule scheduleFor(const NetworkSpec &net, SchedulePolicy policy);

/** Multi-line topology + schedule summary for `griffin_bench
 *  describe <network>`. */
std::string describeDag(const NetworkSpec &net);

} // namespace griffin

#endif // GRIFFIN_SCHED_DAG_SCHEDULE_HH
