#include "runtime/telemetry.hh"

#include <chrono>
#include <memory>
#include <vector>

#include <sys/resource.h>

#include "common/logging.hh"
#include "common/mutex.hh"
#include "common/strings.hh"
#include "runtime/result_sink.hh"

namespace griffin {

namespace {

/**
 * Per-thread span storage.  Owned by the global thread list (shared
 * pointers), referenced thread-locally, so buffers of joined
 * workers survive until export.  The mutex is uncontended on the hot
 * path (only the owning thread appends; export threads lock briefly).
 */
struct ThreadTrace
{
    int tid = 0;
    Mutex mu;

    struct Event
    {
        const char *name;
        std::uint64_t startNs;
        std::uint64_t durNs;
        std::uint32_t args; ///< 1 + index into `args`, 0 = none
    };
    std::vector<Event> events GRIFFIN_GUARDED_BY(mu);
    /** Chrome-trace args objects of the events that carry some. */
    std::vector<std::string> args GRIFFIN_GUARDED_BY(mu);
    std::uint64_t droppedEvents GRIFFIN_GUARDED_BY(mu) = 0;
};

/**
 * Cap on retained events per thread: a full-fidelity sweep can emit
 * per-tile spans by the million, and an unbounded trace would eat the
 * heap before the file is ever written.  ~4M events is ~130 MB of
 * buffer and far beyond what a trace viewer needs.
 */
constexpr std::size_t maxEventsPerThread = std::size_t(1) << 22;

struct TraceGlobal
{
    Mutex mu;
    std::vector<std::shared_ptr<ThreadTrace>> threads
        GRIFFIN_GUARDED_BY(mu);
    int nextTid GRIFFIN_GUARDED_BY(mu) = 1;
};

TraceGlobal &
traceGlobal()
{
    static TraceGlobal g;
    return g;
}

ThreadTrace &
threadTrace()
{
    thread_local ThreadTrace *trace = [] {
        auto owned = std::make_shared<ThreadTrace>();
        TraceGlobal &g = traceGlobal();
        MutexLock lock(g.mu);
        owned->tid = g.nextTid++;
        g.threads.push_back(owned);
        return owned.get();
    }();
    return *trace;
}

std::chrono::steady_clock::time_point
processEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

// Pin the epoch at static-init time so span timestamps measure from
// (approximately) process start even if the first span fires late.
[[maybe_unused]] const auto epoch_initialized = processEpoch();

} // namespace

std::uint64_t
monotonicNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - processEpoch())
            .count());
}

double
peakRssMb()
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    // ru_maxrss is bytes on macOS and KiB on Linux.
#if defined(__APPLE__)
    const double kib = static_cast<double>(usage.ru_maxrss) / 1024.0;
#else
    const double kib = static_cast<double>(usage.ru_maxrss);
#endif
    return kib / 1024.0;
}

// ---- Telemetry ------------------------------------------------------

std::atomic<bool> &
Telemetry::enabledFlag()
{
    static std::atomic<bool> enabled{false};
    return enabled;
}

void
Telemetry::setEnabled(bool on)
{
    enabledFlag().store(on, std::memory_order_relaxed);
}

std::uint32_t
Telemetry::keepArgs(const LayerTag &tag)
{
    ThreadTrace &trace = threadTrace();
    MutexLock lock(trace.mu);
    if (trace.events.size() >= maxEventsPerThread)
        return 0;
    trace.args.push_back("{\"network\": \"" + jsonEscape(tag.network) +
                         "\", \"index\": " + std::to_string(tag.index) +
                         ", \"layer\": \"" + jsonEscape(tag.layer) +
                         "\"}");
    return static_cast<std::uint32_t>(trace.args.size());
}

void
Telemetry::record(const char *name, std::uint64_t start_ns,
                  std::uint64_t dur_ns, std::uint32_t args)
{
    ThreadTrace &trace = threadTrace();
    MutexLock lock(trace.mu);
    if (trace.events.size() >= maxEventsPerThread) {
        ++trace.droppedEvents;
        return;
    }
    // An id from before a clear() names no text any more.
    if (args > trace.args.size())
        args = 0;
    trace.events.push_back({name, start_ns, dur_ns, args});
}

void
Telemetry::writeChromeTrace(std::ostream &os)
{
    TraceGlobal &g = traceGlobal();
    MutexLock glock(g.mu);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    std::uint64_t dropped = 0;
    for (const auto &thread : g.threads) {
        MutexLock lock(thread->mu);
        dropped += thread->droppedEvents;
        if (thread->events.empty())
            continue;
        os << (first ? "\n" : ",\n")
           << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << thread->tid
           << ", \"name\": \"thread_name\", \"args\": {\"name\": "
              "\"thread-"
           << thread->tid << "\"}}";
        first = false;
        for (const auto &e : thread->events) {
            os << ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": "
               << thread->tid << ", \"name\": \"" << e.name
               << "\", \"cat\": \"pipeline\", \"ts\": "
               << formatShortestDouble(
                      static_cast<double>(e.startNs) / 1e3)
               << ", \"dur\": "
               << formatShortestDouble(
                      static_cast<double>(e.durNs) / 1e3);
            if (e.args != 0)
                os << ", \"args\": " << thread->args[e.args - 1];
            os << "}";
        }
    }
    if (!first)
        os << "\n";
    os << "]}\n";
    if (dropped > 0)
        warn("trace dropped ", dropped, " events past the ",
             maxEventsPerThread,
             "-per-thread cap; lower the fidelity for complete traces");
}

std::uint64_t
Telemetry::eventCount()
{
    std::uint64_t count = 0;
    TraceGlobal &g = traceGlobal();
    MutexLock glock(g.mu);
    for (const auto &thread : g.threads) {
        MutexLock lock(thread->mu);
        count += thread->events.size();
    }
    return count;
}

void
Telemetry::clear()
{
    TraceGlobal &g = traceGlobal();
    MutexLock glock(g.mu);
    for (const auto &thread : g.threads) {
        MutexLock lock(thread->mu);
        thread->events.clear();
        thread->args.clear();
        thread->droppedEvents = 0;
    }
}

} // namespace griffin
