#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/annotations.hpp"
#include "common/env.hpp"

namespace mcbp::parallel {

namespace {

/** Bytes that keep two hot atomics from sharing a cache line. */
constexpr std::size_t kCacheLine = 64;

/**
 * One parallelFor invocation. Contiguous chunks of indices are claimed
 * with an atomic cursor; the submitter and up to helperCap pool workers
 * execute them. finished counts completed iterations so the submitter
 * can block until the last in-flight body returns (claim exhaustion
 * alone is not enough: another thread may still be inside body). The
 * cursor and the counter sit on separate cache lines, so claims do not
 * contend with completions.
 */
struct Batch
{
    std::size_t n = 0;
    std::size_t chunk = 1; ///< Indices per claim.
    const std::function<void(std::size_t)> *body = nullptr;
    std::size_t helperCap = 0; ///< Pool workers allowed in (guarded).
    std::size_t helpers = 0;   ///< Pool workers admitted (guarded).

    alignas(kCacheLine) std::atomic<std::size_t> next{0};
    alignas(kCacheLine) std::atomic<std::size_t> finished{0};

    Mutex mutex;
    CondVar done;
    /** Lowest-index exception wins, independent of thread timing. */
    std::size_t errorIndex MCBP_GUARDED_BY(mutex) =
        std::numeric_limits<std::size_t>::max();
    std::exception_ptr error MCBP_GUARDED_BY(mutex);

    bool
    exhausted() const
    {
        return next.load(std::memory_order_relaxed) >= n;
    }

    /** Claim-and-run loop shared by submitter and workers. */
    void
    help()
    {
        for (;;) {
            const std::size_t first =
                next.fetch_add(chunk, std::memory_order_relaxed);
            if (first >= n)
                return;
            const std::size_t last = std::min(n, first + chunk);
            for (std::size_t i = first; i < last; ++i) {
                try {
                    (*body)(i);
                } catch (...) {
                    MutexLock lock(mutex);
                    if (i < errorIndex) {
                        errorIndex = i;
                        error = std::current_exception();
                    }
                }
            }
            const std::size_t ran = last - first;
            if (finished.fetch_add(ran, std::memory_order_acq_rel) + ran ==
                n) {
                // Lock pairs with the submitter's predicate check so
                // the final notify cannot slip into its wait window.
                MutexLock lock(mutex);
                done.notify_all();
            }
        }
    }
};

/**
 * Indices per claim for @p n iterations over @p participants threads:
 * about 16 claims per thread, so sub-microsecond bodies amortize the
 * shared cursor while the tail still balances, clamped to [1, 256].
 * Below 32 iterations per thread each claim stays one index, so a few
 * heavy jobs (profiling keys) still spread across threads.
 */
std::size_t
claimChunk(std::size_t n, std::size_t participants)
{
    return std::clamp<std::size_t>(n / (participants * 16), 1, 256);
}

/**
 * The CPUs the process may run on, in ascending order (empty where the
 * platform offers no affinity mask).
 */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
#if defined(__linux__)
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &mask))
                cpus.push_back(c);
#endif
    return cpus;
}

/** Bind the calling thread to @p cpu; a refused binding is ignored
 *  (the thread then runs wherever the scheduler puts it). */
void
bindToCpu([[maybe_unused]] int cpu)
{
#if defined(__linux__)
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)pthread_setaffinity_np(pthread_self(), sizeof one, &one);
#endif
}

/**
 * Fixed-size worker pool. Workers sleep until a batch with free claims
 * and a free helper slot exists; submitters never sleep while their
 * own batch has unclaimed work.
 *
 * Worker t is bound to CPU t mod k of the k CPUs the process may use
 * (when k > 1). Left to the scheduler, workers can all land on the
 * CPU that woke them and never migrate: on a 4-vCPU KVM guest, four
 * unbound compute threads all ran on one vCPU (process CPU time equal
 * to wall time, 4x a single thread's wall), and a 4,000-item fan-out
 * ran every item on one thread, slower than the serial loop. Bound,
 * the same fan-out used four threads and ran about 3x faster than
 * serial.
 */
class ThreadPool
{
  public:
    explicit ThreadPool(std::size_t threads)
    {
        const std::vector<int> cpus = allowedCpus();
        workers_.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t) {
            const int cpu = cpus.size() > 1 ? cpus[t % cpus.size()] : -1;
            workers_.emplace_back([this, cpu] {
                if (cpu >= 0)
                    bindToCpu(cpu);
                workerLoop();
            });
        }
    }

    ~ThreadPool()
    {
        {
            MutexLock lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (std::thread &w : workers_)
            w.join();
    }

    std::size_t threadCount() const { return workers_.size(); }

    void
    run(std::size_t n, const std::function<void(std::size_t)> &body,
        std::size_t helperCap)
    {
        auto batch = std::make_shared<Batch>();
        batch->n = n;
        batch->chunk =
            claimChunk(n, std::min(helperCap, workers_.size()) + 1);
        batch->body = &body;
        batch->helperCap = helperCap;
        {
            MutexLock lock(mutex_);
            batches_.push_back(batch);
        }
        wake_.notify_all();

        batch->help(); // The submitter always works its own batch.
        std::exception_ptr error;
        {
            MutexLock lock(batch->mutex);
            // The predicate reads only the atomic completion counter,
            // so the guarded members stay behind this lock.
            batch->done.wait(batch->mutex, [&] {
                return batch->finished.load(
                           std::memory_order_acquire) == batch->n;
            });
            // Moved, not copied: a worker may drop the last reference
            // to the batch after this returns, and the exception must
            // then be released by the submitter alone.
            error = std::move(batch->error);
        }
        {
            MutexLock lock(mutex_);
            std::erase(batches_, batch);
        }
        if (error)
            std::rethrow_exception(error);
    }

  private:
    void
    workerLoop()
    {
        for (;;) {
            std::shared_ptr<Batch> batch;
            {
                // Explicit wait loop (not a predicate lambda): the
                // thread-safety analysis then sees every access to
                // stop_/batches_ inside the MutexLock scope.
                MutexLock lock(mutex_);
                for (;;) {
                    if (stop_)
                        return;
                    if ((batch = claimable()) != nullptr)
                        break;
                    wake_.wait(mutex_); // re-check after every wake
                }
                ++batch->helpers; // Admitted under the pool lock.
            }
            batch->help();
            {
                MutexLock lock(mutex_);
                --batch->helpers;
            }
            // Loop around: another batch may have work (no wait if the
            // predicate is already true).
        }
    }

    /** A batch with unclaimed work and a free helper slot (guarded). */
    std::shared_ptr<Batch>
    claimable() const MCBP_REQUIRES(mutex_)
    {
        for (const auto &b : batches_)
            if (!b->exhausted() && b->helpers < b->helperCap)
                return b;
        return nullptr;
    }

    mutable Mutex mutex_;
    CondVar wake_;
    std::vector<std::shared_ptr<Batch>> batches_ MCBP_GUARDED_BY(mutex_);
    bool stop_ MCBP_GUARDED_BY(mutex_) = false;
    std::vector<std::thread> workers_;
};

ThreadPool &
globalPool()
{
    static ThreadPool pool(hardwareThreads());
    return pool;
}

} // namespace

std::size_t
hardwareThreads()
{
    static const std::size_t count = [] {
        if (const char *env = env::get("MCBP_THREADS")) {
            char *end = nullptr;
            const unsigned long v = std::strtoul(env, &end, 10);
            if (end != env && *end == '\0' && v >= 1)
                return static_cast<std::size_t>(v);
        }
        const unsigned hw = std::thread::hardware_concurrency();
        return static_cast<std::size_t>(hw >= 1 ? hw : 1);
    }();
    return count;
}

namespace {

/** Inline serial execution with the same contract as the pool path:
 *  every iteration runs, the lowest-index exception is rethrown. */
void
serialFor(std::size_t n, const std::function<void(std::size_t)> &body)
{
    std::exception_ptr error;
    for (std::size_t i = 0; i < n; ++i) {
        try {
            body(i);
        } catch (...) {
            if (!error)
                error = std::current_exception();
        }
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &body,
            std::size_t threads)
{
    if (n == 0)
        return;
    if (n == 1 || threads == 1) {
        serialFor(n, body);
        return;
    }
    ThreadPool &pool = globalPool();
    const std::size_t cap =
        threads == 0 ? pool.threadCount() : threads - 1;
    if (cap == 0) {
        serialFor(n, body);
        return;
    }
    pool.run(n, body, cap);
}

} // namespace mcbp::parallel
