/**
 * @file
 * Low-overhead tracing for the staged simulation pipeline.
 *
 * Telemetry + ScopedSpan: per-thread scoped wall-time spans over the
 * pipeline seams.  The sweep runner (runtime/runner.hh) runs each
 * task, the consumers of one network layer's workset, under a `layer`
 * span whose Chrome-trace args name the network, the layer index and
 * the layer name.  The task's stage spans nest inside it: gen_a and
 * gen_b (one per operand side the workset generates), tile_sim with
 * one b_schedule, a_schedule or dual_schedule span per GEMM inside it
 * (tile_queues, and the dual engine's b_schedule stream packing, nest
 * in those), and sparten around the SparTen simulator.  reduce, with
 * the schedule span of schedule-aware runs inside it, runs after the
 * tasks and belongs to no layer.  A trace so splits a run's time both
 * by stage (self time) and by network layer (tools/trace_summary.py
 * prints both views).
 *
 * Spans are compiled in but off-by-default cheap: a disabled span is
 * one relaxed atomic load — no clock read, no allocation.  Enabled
 * spans (the `--trace <file>` flag) record every span as an event
 * into thread-local buffers (no cross-thread contention on the hot
 * path) that merge at export time into Chrome trace-event JSON
 * (writeChromeTrace), which opens directly in Perfetto /
 * chrome://tracing.
 *
 * Telemetry never feeds back into simulation: enabling it changes no
 * RNG stream, no schedule, no result byte.  The telemetry_smoke ctest
 * pins this (result rows byte-identical with tracing on and off).
 */

#ifndef GRIFFIN_RUNTIME_TELEMETRY_HH
#define GRIFFIN_RUNTIME_TELEMETRY_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

namespace griffin {

/**
 * Which layer of which network a `layer` span covers: its trace event
 * carries them as args {"network", "index", "layer"}.
 */
struct LayerTag
{
    const std::string &network;
    std::size_t index;
    const std::string &layer;
};

/**
 * Process-wide tracing control and export.  All static: spans from any
 * thread land in that thread's buffer; export merges under the
 * registration lock.
 */
class Telemetry
{
  public:
    /** Turn span recording on or off (off by default). */
    static void setEnabled(bool on);

    static bool
    enabled()
    {
        return enabledFlag().load(std::memory_order_relaxed);
    }

    /**
     * Chrome trace-event JSON ("X" complete events, microsecond
     * timestamps relative to process start, one tid per traced
     * thread, thread_name metadata) — load the file in Perfetto or
     * chrome://tracing.
     */
    static void writeChromeTrace(std::ostream &os);

    /** Retained events across all threads (tests and sizing). */
    static std::uint64_t eventCount();

    /** Drop all recorded events (thread registrations and the on/off
     *  switch survive). */
    static void clear();

  private:
    friend class ScopedSpan;

    static std::atomic<bool> &enabledFlag();
    /** Copy a tag's args into this thread's buffer; returns the id
     *  record() takes (0 once the buffer is full). */
    static std::uint32_t keepArgs(const LayerTag &tag);
    static void record(const char *name, std::uint64_t start_ns,
                       std::uint64_t dur_ns, std::uint32_t args);
};

/** Monotonic (steady_clock) nanoseconds since process start. */
std::uint64_t monotonicNowNs();

/** This process's peak resident set size so far, in MiB (getrusage). */
double peakRssMb();

/**
 * RAII wall-time span over one pipeline stage.  `name` must be a
 * string literal (or otherwise outlive the Telemetry buffers): spans
 * store the pointer, not a copy, to keep the enabled path allocation-
 * free.  Nesting is by construction order per thread — strictly LIFO —
 * which is exactly the containment Chrome "X" events render.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
    {
        if (Telemetry::enabled()) {
            name_ = name;
            startNs_ = monotonicNowNs();
        }
    }

    /**
     * A `layer` span over work on one network layer.  The tag's text is
     * copied into the trace buffer, and only when tracing is on, so its
     * strings need not outlive the span and a disabled span costs what
     * any other does.
     */
    explicit ScopedSpan(const LayerTag &tag) : ScopedSpan("layer")
    {
        if (name_ != nullptr)
            args_ = Telemetry::keepArgs(tag);
    }

    ~ScopedSpan()
    {
        if (name_ != nullptr)
            Telemetry::record(name_, startNs_,
                              monotonicNowNs() - startNs_, args_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *name_ = nullptr;
    std::uint64_t startNs_ = 0;
    std::uint32_t args_ = 0; ///< Telemetry::keepArgs id, 0 = none
};

} // namespace griffin

#endif // GRIFFIN_RUNTIME_TELEMETRY_HH
