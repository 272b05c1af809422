/**
 * @file
 * Low-overhead metrics and tracing for the staged simulation pipeline.
 *
 * Two cooperating facilities, both process-wide:
 *
 *   - MetricsRegistry: named counters, gauges, and histograms behind
 *     stable references.  The runner publishes its previously ad-hoc
 *     stats here once per runSweeps() call — thread-pool
 *     steal/execution totals, jobs-per-second and utilization, and the
 *     process's peak RSS — so the `--stats` JSON line reads one source
 *     of truth instead of scraping griffin_bench's stdout.  Metric
 *     updates are lock-free atomics; registration (name -> slot) takes
 *     a mutex and is expected once per site, not per update.
 *
 *   - Telemetry + ScopedSpan: per-thread scoped wall-time spans over
 *     the pipeline seams: gen_a and gen_b (one per operand side a
 *     workset generates), tile_sim with one b_schedule, a_schedule or
 *     dual_schedule span per GEMM inside it (tile_queues, and the dual
 *     engine's b_schedule stream packing, nest in those), sparten
 *     around the SparTen simulator, reduce, and — on schedule-aware
 *     runs — the nested schedule span.  Spans are compiled in but
 *     off-by-default cheap: a disabled span is one relaxed atomic
 *     load and two pointer writes — no clock read, no allocation.
 *     Enabled spans (the `--trace <file>` flag) record every span as
 *     an event into thread-local buffers (no cross-thread contention
 *     on the hot path) that merge at export time into Chrome
 *     trace-event JSON (writeChromeTrace), which opens directly in
 *     Perfetto / chrome://tracing.
 *
 * Telemetry never feeds back into simulation: enabling it changes no
 * RNG stream, no schedule, no result byte.  The trace ctest pins this
 * (result rows byte-identical with tracing on and off).
 */

#ifndef GRIFFIN_RUNTIME_TELEMETRY_HH
#define GRIFFIN_RUNTIME_TELEMETRY_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/mutex.hh"

namespace griffin {

/** Monotonically increasing event count (add is lock-free). */
class Counter
{
  public:
    void
    add(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value (set is lock-free). */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { set(0.0); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Value distribution: count/sum/min/max plus power-of-two buckets
 * (bucket b counts values v with 2^b <= v < 2^(b+1); bucket 0 also
 * takes v = 0).  record() is a handful of relaxed atomics — safe on
 * the pool's hot path.
 */
class Histogram
{
  public:
    static constexpr int bucketCount = 64;

    void record(std::uint64_t v);

    struct Snapshot
    {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t min = 0; ///< 0 when count == 0
        std::uint64_t max = 0;
        std::uint64_t buckets[bucketCount] = {};

        double
        mean() const
        {
            return count == 0 ? 0.0
                              : static_cast<double>(sum) /
                                    static_cast<double>(count);
        }
    };

    Snapshot snapshot() const;
    void reset();

  private:
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> min_{UINT64_MAX};
    std::atomic<std::uint64_t> max_{0};
    std::atomic<std::uint64_t> buckets_[bucketCount] = {};
};

/** One metric in a registry snapshot (writeMetricsJsonLine renders a
 *  name-sorted list of these). */
// griffin-lint: serialized (metrics JSON line)
struct MetricSnapshot
{
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram
    };

    Kind kind = Kind::Counter;
    std::string name;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    Histogram::Snapshot histogram;
};

/**
 * Named metric slots with stable addresses: counter()/gauge()/
 * histogram() register on first use and return the same reference
 * forever after, so call sites resolve once and update lock-free.
 * Registering one name as two different kinds is a panic() (it means
 * two subsystems disagree about what the metric is).
 *
 * instance() is the process-wide registry every production site uses;
 * tests may construct private registries.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    static MetricsRegistry &instance();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Every registered metric, sorted by name. */
    std::vector<MetricSnapshot> snapshot() const;


    /** Zero every value (registrations and references survive). */
    void reset();

  private:
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram
    };

    struct Slot
    {
        Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Slot &slot(const std::string &name, Kind kind);

    mutable Mutex mu_;
    /** Name-sorted iteration. */
    std::map<std::string, Slot> slots_ GRIFFIN_GUARDED_BY(mu_);
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
    static void record(const char *name, std::uint64_t start_ns,
                       std::uint64_t dur_ns);
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

    ~ScopedSpan()
    {
        if (name_ != nullptr)
            Telemetry::record(name_, startNs_,
                              monotonicNowNs() - startNs_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *name_ = nullptr;
    std::uint64_t startNs_ = 0;
};

} // namespace griffin

#endif // GRIFFIN_RUNTIME_TELEMETRY_HH
