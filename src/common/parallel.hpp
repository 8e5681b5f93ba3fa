/**
 * @file
 * Deterministic data-parallel primitives for the host-side hot paths
 * (profiling fan-out, per-query attention profiling).
 *
 * The design rule is that parallelism must never change a number:
 * parallelFor(n, body) runs body(0..n-1) where each iteration may
 * depend only on its index, and parallelMap joins its results in index
 * order — so any reduction performed over the returned vector adds in
 * the same order as a serial loop and the output is bit-identical at
 * every thread count. Stochastic work must derive its RNG from the
 * index (e.g. profileAttention seeds query qi from seed ^ qi), never
 * from shared mutable state.
 *
 * One lazily-created global pool is shared by the whole process
 * (workers = MCBP_THREADS when set, else std::thread::hardware_
 * concurrency), each worker bound to one CPU of the process's affinity
 * mask, round-robin. Submitting threads always participate in their own
 * batch, so nested parallelFor calls — a pool worker fanning out again
 * — cannot deadlock: the inner caller drains its own batch even when
 * every worker is busy. Exceptions thrown by iterations are caught,
 * every remaining iteration still runs, and the exception of the
 * lowest-throwing index is rethrown to the submitter (again: which
 * error you see does not depend on timing).
 */
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace mcbp::parallel {

/**
 * Worker count of the global pool: the MCBP_THREADS environment
 * variable when set to a positive integer, else the hardware thread
 * count (always >= 1). Fixed at first use of the pool.
 */
std::size_t hardwareThreads();

/**
 * Run body(i) for every i in [0, n).
 *
 * @param threads concurrency cap: 0 = use the full global pool,
 *        1 = run serially inline on the calling thread (the
 *        bit-identity reference path), k > 1 = at most k threads
 *        (the caller plus k-1 pool workers) touch this batch.
 *
 * The calling thread always participates. Threads claim contiguous
 * chunks of indices (one index per claim while n is below 32 per
 * participating thread), so sub-microsecond bodies scale too.
 * Iterations may run in any order and concurrently; body must only
 * depend on i and on state it owns. If one or more iterations throw,
 * all others still run and the exception of the lowest index is
 * rethrown here.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &body,
                 std::size_t threads = 0);

/**
 * Map i -> fn(i) over [0, n), returning results joined in index order.
 * T must be default-constructible. Same execution and exception
 * contract as parallelFor.
 */
template <typename T, typename Fn>
std::vector<T>
parallelMap(std::size_t n, Fn &&fn, std::size_t threads = 0)
{
    std::vector<T> out(n);
    parallelFor(
        n, [&](std::size_t i) { out[i] = fn(i); }, threads);
    return out;
}

} // namespace mcbp::parallel
