#include "runtime/thread_pool.hh"

#include <chrono>

#include "common/logging.hh"

namespace griffin {

ThreadPool::ThreadPool(int threads)
{
    if (threads <= 0)
        fatal("thread pool needs at least 1 thread, got ", threads);
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        threads_.emplace_back(
            [this, i] { workerLoop(static_cast<std::size_t>(i)); });
}

ThreadPool::~ThreadPool()
{
    // Drain-then-join: jobs already submitted are a promise to the
    // caller, so shutdown finishes them rather than dropping them.
    {
        MutexLock lock(mu_);
        stopping_ = true;
    }
    workCv_.notifyAll();
    for (auto &t : threads_)
        t.join();
    MutexLock lock(mu_);
    GRIFFIN_ASSERT(unfinished_ == 0,
                   "pool joined with ", unfinished_, " unfinished jobs");
}

void
ThreadPool::submit(std::function<void()> job)
{
    std::vector<std::function<void()>> batch;
    batch.push_back(std::move(job));
    submitAll(std::move(batch));
}

void
ThreadPool::submitAll(std::vector<std::function<void()>> jobs)
{
    {
        // Placing under mu_ holds back every worker that is asleep,
        // and one that is awake blocks here (to count its job started)
        // after its first pop, so each deque is consumed in batch
        // order from its front.  Lock order: mu_, then a worker's mu;
        // no path takes them the other way round.
        MutexLock lock(mu_);
        if (stopping_)
            panic("submit() on a stopping thread pool");
        for (auto &job : jobs) {
            GRIFFIN_ASSERT(job != nullptr, "null job submitted");
            Worker &target = *workers_[nextWorker_];
            nextWorker_ = (nextWorker_ + 1) % workers_.size();
            MutexLock worker_lock(target.mu);
            target.jobs.push_back(std::move(job));
        }
        unfinished_ += jobs.size();
        queued_ += jobs.size();
    }
    workCv_.notifyAll();
}

void
ThreadPool::wait()
{
    MutexLock lock(mu_);
    while (unfinished_ != 0)
        idleCv_.wait(lock);
}

std::size_t
ThreadPool::pendingJobs() const
{
    MutexLock lock(mu_);
    return unfinished_;
}

ThreadPool::Stats
ThreadPool::stats() const
{
    Stats s;
    s.executed = executed_.load(std::memory_order_relaxed);
    s.steals = steals_.load(std::memory_order_relaxed);
    s.busyNs = busyNs_.load(std::memory_order_relaxed);
    return s;
}

int
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

bool
ThreadPool::popOwn(std::size_t self, std::function<void()> &job)
{
    auto &w = *workers_[self];
    MutexLock lock(w.mu);
    if (w.jobs.empty())
        return false;
    job = std::move(w.jobs.front());
    w.jobs.pop_front();
    return true;
}

bool
ThreadPool::steal(std::size_t self, std::function<void()> &job)
{
    const std::size_t n = workers_.size();
    for (std::size_t i = 1; i < n; ++i) {
        auto &victim = *workers_[(self + i) % n];
        MutexLock lock(victim.mu);
        if (victim.jobs.empty())
            continue;
        job = std::move(victim.jobs.front());
        victim.jobs.pop_front();
        steals_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    return false;
}

void
ThreadPool::workerLoop(std::size_t self)
{
    for (;;) {
        std::function<void()> job;
        if (popOwn(self, job) || steal(self, job)) {
            {
                MutexLock lock(mu_);
                --queued_;
            }
            const auto start = std::chrono::steady_clock::now();
            job();
            busyNs_.fetch_add(
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count()),
                std::memory_order_relaxed);
            executed_.fetch_add(1, std::memory_order_relaxed);
            MutexLock lock(mu_);
            --unfinished_;
            if (unfinished_ == 0) {
                idleCv_.notifyAll();
                if (stopping_)
                    workCv_.notifyAll();
            }
            continue;
        }
        bool rescan = false;
        {
            MutexLock lock(mu_);
            // queued_ > 0 after an empty scan means a batch was placed
            // after the scan, or another worker has popped a job and
            // not yet counted it: rescan, don't sleep.
            if (queued_ > 0) {
                rescan = true;
            } else if (stopping_) {
                return; // nothing queued and no more submits coming
            } else {
                while (queued_ == 0 && !stopping_)
                    workCv_.wait(lock);
            }
        }
        if (rescan)
            std::this_thread::yield();
    }
}

} // namespace griffin
