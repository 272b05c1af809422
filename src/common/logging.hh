/**
 * @file
 * Status and error reporting in the gem5 tradition.
 *
 * Three error paths with distinct intent — and distinct, documented
 * exit statuses, so scripts and CI can tell them apart without parsing
 * stderr:
 *   - panic():    an internal invariant was violated — a bug in this
 *                 library, never the user's fault.  Calls std::abort()
 *                 (the process dies with SIGABRT).
 *   - fatal():    the run cannot *start* (or continue meaningfully)
 *                 because of a user error — bad configuration, invalid
 *                 arguments, malformed input files.  Exits with
 *                 exitUsageError (2).
 *   - fatalRun(): a correctly-configured run *failed* — an external
 *                 resource failed mid-flight (an output file's disk
 *                 filled up).  Exits with exitRunFailure (1).
 *                 Retrying may succeed; fixing flags will not.
 *
 * Two status paths:
 *   - warn():   something works but not as well as it should; if odd
 *               behaviour follows, start looking here.
 *   - inform(): plain operating status, no connotation of a problem.
 */

#ifndef GRIFFIN_COMMON_LOGGING_HH
#define GRIFFIN_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace griffin {

/**
 * Process exit statuses, kept distinct per failure class so scripts
 * and CI can branch on $? alone:
 *
 *   0  exitSuccess     the run completed
 *   1  exitRunFailure  fatalRun(): the run started but could not
 *                      complete (an external resource failed
 *                      mid-run) — retryable
 *   2  exitUsageError  fatal(): user/configuration error (bad flags,
 *                      malformed input) — retrying identical
 *                      invocations cannot succeed
 *  SIGABRT (134)       panic(): internal invariant violation (a bug)
 */
constexpr int exitSuccess = 0;
constexpr int exitRunFailure = 1;
constexpr int exitUsageError = 2;

namespace detail {

/** Stream a parameter pack into a string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    static_cast<void>((os << ... << std::forward<Args>(args)));
    return os.str();
}

/** Terminates via std::abort() after printing "panic: <msg>". */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Terminates via std::exit(exitUsageError) after printing
 *  "fatal: <msg>". */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Terminates via std::exit(exitRunFailure) after printing
 *  "error: <msg>". */
[[noreturn]] void fatalRunImpl(const char *file, int line,
                               const std::string &msg);

void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

// panic, fatal and fatalRun are class templates so that each record
// names its call site: a default argument of __builtin_FILE() /
// __builtin_LINE() is evaluated where the call is written, and the
// deduction guides let a call deduce its argument pack, which a
// defaulted parameter after a function parameter pack cannot.  A call
// reads like a function call and never returns.

/**
 * Abort on an internal invariant violation.  Arguments are streamed
 * together, e.g. panic("bad lane ", lane, " of ", lanes).
 */
template <typename... Args>
struct panic
{
    [[noreturn]] explicit panic(Args &&...args,
                                const char *file = __builtin_FILE(),
                                int line = __builtin_LINE())
    {
        detail::panicImpl(file, line,
                          detail::concat(std::forward<Args>(args)...));
    }
};

template <typename... Args>
panic(Args &&...) -> panic<Args...>;

/** Exit(exitUsageError) on an unrecoverable user error (bad config,
 *  bad input). */
template <typename... Args>
struct fatal
{
    [[noreturn]] explicit fatal(Args &&...args,
                                const char *file = __builtin_FILE(),
                                int line = __builtin_LINE())
    {
        detail::fatalImpl(file, line,
                          detail::concat(std::forward<Args>(args)...));
    }
};

template <typename... Args>
fatal(Args &&...) -> fatal<Args...>;

/**
 * Exit(exitRunFailure) when a correctly-configured run cannot
 * complete: an external resource vanished mid-run.  Distinct from
 * fatal() so orchestration can retry run failures but not usage
 * errors.
 */
template <typename... Args>
struct fatalRun
{
    [[noreturn]] explicit fatalRun(Args &&...args,
                                   const char *file = __builtin_FILE(),
                                   int line = __builtin_LINE())
    {
        detail::fatalRunImpl(file, line,
                             detail::concat(std::forward<Args>(args)...));
    }
};

template <typename... Args>
fatalRun(Args &&...) -> fatalRun<Args...>;

/** Non-fatal warning to stderr. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Informational status to stderr. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

/**
 * Library assertion that survives NDEBUG builds.  Use for invariants
 * whose violation means a simulator bug.
 */
#define GRIFFIN_ASSERT(cond, ...)                                          \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::griffin::detail::panicImpl(                                  \
                __FILE__, __LINE__,                                        \
                ::griffin::detail::concat("assertion '" #cond "' failed: ",\
                                          ##__VA_ARGS__));                 \
        }                                                                  \
    } while (0)

} // namespace griffin

#endif // GRIFFIN_COMMON_LOGGING_HH
