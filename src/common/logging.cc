#include "common/logging.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace griffin {
namespace detail {

namespace {

/**
 * Serialises all log writes.  Parallel runner jobs warn() and inform()
 * concurrently; without the lock their lines interleave mid-message.
 * panic()/fatal() also take it so a crash message is never shredded by
 * a concurrent status line (abort/exit follow after release).
 */
std::mutex &
logMutex()
{
    static std::mutex mu;
    return mu;
}

/**
 * Monotonic epoch for log timestamps, pinned at static-init time.
 * steady_clock, not system_clock: sweeps care about relative spacing
 * between lines, and a wall-clock adjustment (NTP step, suspend)
 * mid-run would make the log appear to travel in time.
 */
std::chrono::steady_clock::time_point
logEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

[[maybe_unused]] const auto log_epoch_initialized = logEpoch();

/** "[+12.345s] " — monotonic seconds since process start. */
std::string
timestamp()
{
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      logEpoch())
            .count();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "[+%.3fs] ", seconds);
    return buf;
}

/**
 * One log record as a single fwrite + fflush under the lock.  fprintf
 * may issue several underlying writes for one format string, which can
 * shear against another *process* sharing the stream (two runs logging
 * to one file) or against an unlocked stdio on some platforms even
 * though our own threads hold the mutex — so the whole record is
 * materialised first and handed to stdio as one buffer, flushed before
 * the lock drops.
 */
void
emit(const std::string &record)
{
    std::lock_guard<std::mutex> lock(logMutex());
    std::fwrite(record.data(), 1, record.size(), stderr);
    std::fflush(stderr);
}

std::string
errorRecord(const char *severity, const char *file, int line,
            const std::string &msg)
{
    return std::string(severity) + ": " + timestamp() + msg + "\n  @ " +
           file + ":" + std::to_string(line) + "\n";
}

} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    emit(errorRecord("panic", file, line, msg));
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    emit(errorRecord("fatal", file, line, msg));
    std::exit(exitUsageError);
}

void
fatalRunImpl(const char *file, int line, const std::string &msg)
{
    emit(errorRecord("error", file, line, msg));
    std::exit(exitRunFailure);
}

void
warnImpl(const std::string &msg)
{
    emit("warn: " + timestamp() + msg + "\n");
}

void
informImpl(const std::string &msg)
{
    emit("info: " + timestamp() + msg + "\n");
}

} // namespace detail
} // namespace griffin
