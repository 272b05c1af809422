/**
 * @file
 * Clang thread-safety annotation macros (no-ops everywhere else).
 *
 * These wrap Clang's `-Wthread-safety` attribute set so the locking
 * discipline of the telemetry thread buffers (the one subsystem that
 * shares locked state across threads; the runner's workers share only
 * atomic counters) is machine-checked at compile time under Clang and
 * costs nothing under GCC (which silently has no such attributes;
 * every macro expands to nothing there).
 *
 * Vocabulary (see common/mutex.hh for the annotated Mutex/MutexLock
 * types these attach to):
 *
 *   GRIFFIN_CAPABILITY(x)      this class is a lockable capability
 *                              (put on Mutex itself)
 *   GRIFFIN_SCOPED_CAPABILITY  this class acquires on construction and
 *                              releases on destruction (MutexLock)
 *   GRIFFIN_GUARDED_BY(mu)     this field may only be read or written
 *                              while `mu` is held
 *   GRIFFIN_PT_GUARDED_BY(mu)  as above, for the pointee of a pointer
 *   GRIFFIN_REQUIRES(mu)       callers of this function must already
 *                              hold `mu`
 *   GRIFFIN_ACQUIRE(mu) / GRIFFIN_RELEASE(mu)
 *                              this function takes / drops `mu`
 *                              (annotate lock()/unlock() themselves)
 *   GRIFFIN_EXCLUDES(mu)       this function must NOT be entered with
 *                              `mu` held (self-deadlock guard)
 *   GRIFFIN_RETURN_CAPABILITY(mu)
 *                              this function returns a reference to
 *                              the capability `mu`
 *   GRIFFIN_NO_THREAD_SAFETY_ANALYSIS
 *                              opt one function out (use sparingly,
 *                              with a comment saying why the analysis
 *                              cannot see the invariant)
 *
 * How to run the analysis locally (needs clang):
 *
 *     CXX=clang++ cmake -B build-tsa -S . \
 *         -DCMAKE_CXX_FLAGS=-Wthread-safety
 *     cmake --build build-tsa -j
 *
 * CI's clang build compiles with -Wthread-safety -Werror, so a
 * guarded field touched without its mutex fails the build.
 */

#ifndef GRIFFIN_COMMON_THREAD_ANNOTATIONS_HH
#define GRIFFIN_COMMON_THREAD_ANNOTATIONS_HH

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define GRIFFIN_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif

#ifndef GRIFFIN_THREAD_ANNOTATION
#define GRIFFIN_THREAD_ANNOTATION(x) // no-op outside clang
#endif

#define GRIFFIN_CAPABILITY(x) GRIFFIN_THREAD_ANNOTATION(capability(x))

#define GRIFFIN_SCOPED_CAPABILITY GRIFFIN_THREAD_ANNOTATION(scoped_lockable)

#define GRIFFIN_GUARDED_BY(x) GRIFFIN_THREAD_ANNOTATION(guarded_by(x))

#define GRIFFIN_PT_GUARDED_BY(x) GRIFFIN_THREAD_ANNOTATION(pt_guarded_by(x))

#define GRIFFIN_REQUIRES(...)                                              \
    GRIFFIN_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

#define GRIFFIN_ACQUIRE(...)                                               \
    GRIFFIN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

#define GRIFFIN_RELEASE(...)                                               \
    GRIFFIN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

#define GRIFFIN_EXCLUDES(...)                                              \
    GRIFFIN_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

#define GRIFFIN_RETURN_CAPABILITY(x)                                       \
    GRIFFIN_THREAD_ANNOTATION(lock_returned(x))

#define GRIFFIN_NO_THREAD_SAFETY_ANALYSIS                                  \
    GRIFFIN_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif // GRIFFIN_COMMON_THREAD_ANNOTATIONS_HH
