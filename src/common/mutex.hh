/**
 * @file
 * Annotated mutex primitives for Clang's thread-safety analysis.
 *
 * The standard library's std::mutex / std::lock_guard carry no
 * capability annotations in libstdc++, so `-Wthread-safety` cannot see
 * them being taken and every GRIFFIN_GUARDED_BY field would warn on
 * correct code.  These thin wrappers — zero-overhead over the std
 * types they hold — exist purely to carry the annotations:
 *
 *   Mutex      an annotated std::mutex (CAPABILITY)
 *   MutexLock  an annotated scoped lock (SCOPED_CAPABILITY), the
 *              project's std::lock_guard
 *
 * The telemetry trace buffers (runtime/telemetry.cc) are their users.
 * Discipline: fields shared across threads get GRIFFIN_GUARDED_BY, and
 * a MutexLock in scope is the only way to hold a Mutex.  See
 * common/thread_annotations.hh for the macro vocabulary and how to run
 * the analysis.
 */

#ifndef GRIFFIN_COMMON_MUTEX_HH
#define GRIFFIN_COMMON_MUTEX_HH

#include <mutex>

#include "common/thread_annotations.hh"

namespace griffin {

class GRIFFIN_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

  private:
    // Only MutexLock takes the lock, so every acquisition is scoped.
    friend class MutexLock;
    std::mutex mu_;
};

/** RAII lock over a Mutex — the annotated std::lock_guard. */
class GRIFFIN_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) GRIFFIN_ACQUIRE(mu)
        : lock_(mu.mu_)
    {
    }

    ~MutexLock() GRIFFIN_RELEASE() {}

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    std::lock_guard<std::mutex> lock_;
};

} // namespace griffin

#endif // GRIFFIN_COMMON_MUTEX_HH
