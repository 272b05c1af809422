/**
 * @file
 * Work-stealing thread pool for the experiment runner.
 *
 * Each worker owns a deque and runs its own jobs in submission order;
 * when its deque is empty it steals a victim's oldest job.  Submission
 * round-robins across the worker deques, which spreads a burst of jobs
 * without a global queue becoming the contention point.
 *
 * submitAll() places a whole batch before any worker starts one of its
 * jobs, so in a fresh pool worker w runs jobs w, w + threads,
 * w + 2 * threads, ... until the deques run dry and the steals at the
 * tail begin.  Which jobs run side by side, and so the peak memory of
 * a sweep, is then a function of the batch and the thread count rather
 * than of how the workers' wake-ups race the submission.
 *
 * Which worker runs which tail job is still *not* deterministic.
 * Result determinism is the runner's problem, and it solves it by
 * giving every job an order-independent seed and merging results by
 * submission index (runner.hh).
 */

#ifndef GRIFFIN_RUNTIME_THREAD_POOL_HH
#define GRIFFIN_RUNTIME_THREAD_POOL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.hh"

namespace griffin {

class ThreadPool
{
  public:
    /**
     * Spawn `threads` workers (>= 1; fatal() on 0 or negative).
     * hardwareThreads() is the usual argument.
     */
    explicit ThreadPool(int threads);

    /** Drains every pending job, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threads() const { return static_cast<int>(workers_.size()); }

    /**
     * Enqueue one job.  Jobs must not throw (the library reports
     * errors via fatal()/panic()); an escaping exception terminates.
     * Submitting after shutdown began is a panic().
     */
    void submit(std::function<void()> job);

    /**
     * Enqueue a batch, round-robin from the submit cursor.  No worker
     * starts a job of the batch before the whole batch is placed, so
     * each worker runs its share in batch order.  (A worker awake
     * during the placement may pick its first job early: its own, or
     * a victim's if its deque is still empty.)
     */
    void submitAll(std::vector<std::function<void()>> jobs);

    /** Block until every job submitted so far has finished. */
    void wait();

    /** Jobs submitted but not yet finished (racy; for status lines). */
    std::size_t pendingJobs() const;

    /**
     * Execution totals since construction.  Reads are racy relaxed
     * loads — call after wait() for a settled view.  busyNs is summed
     * job wall-time across workers; busyNs / (threads * sweep wall)
     * gives utilization.
     */
    struct Stats
    {
        std::uint64_t executed = 0; ///< jobs run to completion
        std::uint64_t steals = 0;   ///< jobs taken from another deque
        std::uint64_t busyNs = 0;   ///< summed job wall-time
    };

    Stats stats() const;

    /** std::thread::hardware_concurrency with a floor of 1. */
    static int hardwareThreads();

  private:
    struct Worker
    {
        mutable Mutex mu;
        std::deque<std::function<void()>> jobs GRIFFIN_GUARDED_BY(mu);
    };

    bool popOwn(std::size_t self, std::function<void()> &job);
    bool steal(std::size_t self, std::function<void()> &job);
    void workerLoop(std::size_t self);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> steals_{0};
    std::atomic<std::uint64_t> busyNs_{0};

    mutable Mutex mu_;
    CondVar workCv_; ///< workers sleep here
    CondVar idleCv_; ///< wait() sleeps here
    /** Submitted minus completed. */
    std::size_t unfinished_ GRIFFIN_GUARDED_BY(mu_) = 0;
    /** Submitted minus started. */
    std::size_t queued_ GRIFFIN_GUARDED_BY(mu_) = 0;
    /** Round-robin submit cursor. */
    std::size_t nextWorker_ GRIFFIN_GUARDED_BY(mu_) = 0;
    bool stopping_ GRIFFIN_GUARDED_BY(mu_) = false;
};

} // namespace griffin

#endif // GRIFFIN_RUNTIME_THREAD_POOL_HH
