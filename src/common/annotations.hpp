/**
 * @file
 * Clang thread-safety annotations and the annotated lock primitives
 * the analysis needs to see.
 *
 * Every mutex-protected structure in the tree (the SingleflightMap
 * shards behind ProfileCache and PlanCache, the common/parallel pool,
 * KvBlockManager) declares WHICH
 * data each lock guards via these macros, and the clang CI lane
 * compiles with `-Wthread-safety -Werror` so an unguarded access is a
 * build break, not a latent race. Under gcc (and any compiler without
 * the attributes) everything expands to nothing — zero overhead, same
 * semantics.
 *
 * std::mutex itself carries no capability attributes under libstdc++,
 * so the analysis cannot see through std::lock_guard. The annotated
 * wrappers below (Mutex / MutexLock / CondVar) are therefore the
 * canonical lock vocabulary for guarded state: Mutex is the
 * capability, MutexLock the scoped acquire, CondVar a
 * condition_variable_any that waits on the annotated Mutex directly.
 *
 * Convention: name the guarded relationship at the member, not in
 * prose — `std::uint64_t calls_ MCBP_GUARDED_BY(mutex_);` — and
 * annotate private helpers that expect the lock held with
 * MCBP_REQUIRES(mutex_). Use MCBP_NO_THREAD_SAFETY_ANALYSIS only with
 * a one-line justification comment.
 */
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define MCBP_TS_ATTR(x) __attribute__((x))
#else
#define MCBP_TS_ATTR(x) // no-op off clang
#endif

/** Marks a class as a lockable capability (mutex-like). */
#define MCBP_CAPABILITY(x) MCBP_TS_ATTR(capability(x))
/** Marks an RAII class that acquires in ctor / releases in dtor. */
#define MCBP_SCOPED_CAPABILITY MCBP_TS_ATTR(scoped_lockable)
/** Data member readable/writable only with @p x held. */
#define MCBP_GUARDED_BY(x) MCBP_TS_ATTR(guarded_by(x))
/** Pointer member whose pointee is guarded by @p x. */
#define MCBP_PT_GUARDED_BY(x) MCBP_TS_ATTR(pt_guarded_by(x))
/** Function that must be called with the capability held. */
#define MCBP_REQUIRES(...) MCBP_TS_ATTR(requires_capability(__VA_ARGS__))
/** Function that acquires the capability and returns holding it. */
#define MCBP_ACQUIRE(...) MCBP_TS_ATTR(acquire_capability(__VA_ARGS__))
/** Function that releases the held capability. */
#define MCBP_RELEASE(...) MCBP_TS_ATTR(release_capability(__VA_ARGS__))
/** Function that acquires only when returning @p first argument. */
#define MCBP_TRY_ACQUIRE(...) MCBP_TS_ATTR(try_acquire_capability(__VA_ARGS__))
/** Function that must NOT be called with the capability held. */
#define MCBP_EXCLUDES(...) MCBP_TS_ATTR(locks_excluded(__VA_ARGS__))
/** Function returning a reference to the named capability. */
#define MCBP_RETURN_CAPABILITY(x) MCBP_TS_ATTR(lock_returned(x))
/** Escape hatch; always pair with a justification comment. */
#define MCBP_NO_THREAD_SAFETY_ANALYSIS \
    MCBP_TS_ATTR(no_thread_safety_analysis)

namespace mcbp {

/**
 * std::mutex with the capability attribute the clang analysis keys
 * on. Same cost, same semantics; BasicLockable, so it also works
 * directly with condition_variable_any (see CondVar).
 */
class MCBP_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() MCBP_ACQUIRE() { m_.lock(); }
    void unlock() MCBP_RELEASE() { m_.unlock(); }
    bool try_lock() MCBP_TRY_ACQUIRE(true) { return m_.try_lock(); }

  private:
    std::mutex m_;
};

/** Scoped lock over Mutex (the std::lock_guard the analysis can see). */
class MCBP_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &m) MCBP_ACQUIRE(m) : m_(m) { m_.lock(); }
    ~MutexLock() MCBP_RELEASE() { m_.unlock(); }
    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &m_;
};

/**
 * Condition variable over the annotated Mutex. wait() atomically
 * releases and reacquires the mutex internally; to the caller (and
 * the analysis) the lock is held before and after, hence REQUIRES.
 */
class CondVar
{
  public:
    /** Wait until @p pred; @p m must be held (it is released while
     *  blocked and reacquired before returning). Use only when the
     *  predicate touches no MCBP_GUARDED_BY state (e.g. atomics): a
     *  lambda body is analyzed without the caller's lock context. For
     *  guarded predicates write an explicit check/wait() loop instead. */
    template <typename Pred>
    void
    wait(Mutex &m, Pred pred) MCBP_REQUIRES(m)
    {
        cv_.wait(m, pred);
    }

    /** One blocking wait (wakes on notify or spuriously); the caller
     *  re-checks its condition in a loop under the held lock. */
    void
    wait(Mutex &m) MCBP_REQUIRES(m)
    {
        cv_.wait(m);
    }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

  private:
    std::condition_variable_any cv_;
};

} // namespace mcbp
