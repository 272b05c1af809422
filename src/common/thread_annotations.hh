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
 *   GRIFFIN_ACQUIRE(mu) / GRIFFIN_RELEASE(mu)
 *                              this function takes / drops `mu`
 *                              (MutexLock's constructor / destructor)
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

#define GRIFFIN_ACQUIRE(...)                                               \
    GRIFFIN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

#define GRIFFIN_RELEASE(...)                                               \
    GRIFFIN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

#endif // GRIFFIN_COMMON_THREAD_ANNOTATIONS_HH
