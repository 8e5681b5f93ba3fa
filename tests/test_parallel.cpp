/** @file Unit tests for common/parallel: the deterministic thread pool. */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/parallel.hpp"

namespace mcbp::parallel {
namespace {

/** Cheap per-index mixer (SplitMix64 finalizer). */
std::uint64_t
mix(std::uint64_t i)
{
    std::uint64_t z = i + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

TEST(Parallel, HardwareThreadsIsPositive)
{
    EXPECT_GE(hardwareThreads(), 1u);
}

TEST(Parallel, MapJoinsInIndexOrder)
{
    const std::size_t n = 1000;
    const std::vector<std::uint64_t> pooled =
        parallelMap<std::uint64_t>(n, [](std::size_t i) { return mix(i); });
    const std::vector<std::uint64_t> serial = parallelMap<std::uint64_t>(
        n, [](std::size_t i) { return mix(i); }, 1);
    ASSERT_EQ(pooled.size(), n);
    EXPECT_EQ(pooled, serial); // joined in index order, bit-identical.
}

TEST(Parallel, EveryIndexRunsExactlyOnce)
{
    const std::size_t n = 517;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Parallel, ZeroAndSingleElementEdges)
{
    std::atomic<int> calls{0};
    parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
    parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls.load(), 1);
}

TEST(Parallel, SerialCapRunsOnCallingThread)
{
    const std::thread::id self = std::this_thread::get_id();
    parallelFor(
        16, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), self); },
        1);
}

TEST(Parallel, LowestIndexExceptionWins)
{
    // Every iteration runs; the exception of the lowest throwing index
    // is rethrown regardless of which thread threw first.
    std::vector<std::atomic<int>> hits(64);
    try {
        parallelFor(64, [&](std::size_t i) {
            ++hits[i];
            if (i == 7 || i == 55)
                throw std::runtime_error("boom at " + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom at 7");
    }
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Parallel, ChunkedClaimsRunEveryIndexOnceAcrossChunkBoundaries)
{
    // Claims are chunks of about n / (participants x 16) indices,
    // clamped to [1, 256]: these sizes straddle the one-index regime,
    // chunk edges with a ragged tail, and the 256 clamp, for the full
    // pool and for small caps.
    const std::size_t p = hardwareThreads() + 1;
    const std::vector<std::size_t> sizes = {
        2,          15,         16,         17,
        p * 16 - 1, p * 16,     p * 16 + 1, p * 32 - 1,
        p * 32 + 1, p * 4096 - 1, p * 4096 + 1, 100003};
    for (std::size_t threads : {std::size_t{0}, std::size_t{2},
                                std::size_t{3}}) {
        for (std::size_t n : sizes) {
            std::vector<std::atomic<int>> hits(n);
            parallelFor(
                n, [&](std::size_t i) { ++hits[i]; }, threads);
            std::size_t wrong = 0;
            for (std::size_t i = 0; i < n; ++i)
                wrong += hits[i].load() != 1;
            EXPECT_EQ(wrong, 0u) << "n " << n << " threads " << threads;
        }
    }
}

TEST(Parallel, LowestIndexExceptionWinsAcrossChunks)
{
    // Throws in different chunks (and two in one chunk): the lowest
    // index still wins and every other index still runs once.
    const std::size_t n = 20000;
    std::vector<std::atomic<int>> hits(n);
    try {
        parallelFor(n, [&](std::size_t i) {
            ++hits[i];
            if (i == 19999 || i == 11000 || i == 4321 || i == 4322)
                throw std::runtime_error("boom at " + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom at 4321");
    }
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < n; ++i)
        wrong += hits[i].load() != 1;
    EXPECT_EQ(wrong, 0u);
}

TEST(Parallel, SerialPathMatchesExceptionContract)
{
    std::vector<std::atomic<int>> hits(8);
    EXPECT_THROW(parallelFor(
                     8,
                     [&](std::size_t i) {
                         ++hits[i];
                         if (i == 2)
                             throw std::runtime_error("serial boom");
                     },
                     1),
                 std::runtime_error);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Parallel, NestedParallelForCompletes)
{
    // A body that fans out again must not deadlock even when every
    // pool worker is busy with the outer batch: the inner submitter
    // drains its own batch. Results stay index-deterministic.
    const std::size_t outer = 8, inner = 32;
    std::vector<std::uint64_t> sums(outer, 0);
    parallelFor(outer, [&](std::size_t o) {
        const std::vector<std::uint64_t> part =
            parallelMap<std::uint64_t>(inner, [&](std::size_t i) {
                return mix(o * inner + i);
            });
        sums[o] = std::accumulate(part.begin(), part.end(),
                                  std::uint64_t{0});
    });
    for (std::size_t o = 0; o < outer; ++o) {
        std::uint64_t expect = 0;
        for (std::size_t i = 0; i < inner; ++i)
            expect += mix(o * inner + i);
        EXPECT_EQ(sums[o], expect) << "outer " << o;
    }
}

TEST(Parallel, ConcurrentExternalSubmitters)
{
    // Several plain std::threads submitting batches at once: the pool
    // must serve all of them without loss or deadlock.
    const std::size_t submitters = 4, n = 256;
    std::vector<std::uint64_t> totals(submitters, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < submitters; ++t) {
        threads.emplace_back([&, t] {
            const std::vector<std::uint64_t> part =
                parallelMap<std::uint64_t>(
                    n, [&](std::size_t i) { return mix(t * n + i); });
            totals[t] = std::accumulate(part.begin(), part.end(),
                                        std::uint64_t{0});
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (std::size_t t = 0; t < submitters; ++t) {
        std::uint64_t expect = 0;
        for (std::size_t i = 0; i < n; ++i)
            expect += mix(t * n + i);
        EXPECT_EQ(totals[t], expect) << "submitter " << t;
    }
}

TEST(Parallel, ThreadCapIsRespected)
{
    // With a cap of 2, at most 2 threads may be inside bodies at once.
    std::atomic<int> inside{0};
    std::atomic<int> peak{0};
    parallelFor(
        64,
        [&](std::size_t) {
            const int now = ++inside;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::yield();
            --inside;
        },
        2);
    EXPECT_LE(peak.load(), 2);
}

#if defined(__linux__)
TEST(Parallel, PoolWorkersRunOnDistinctAllowedCpus)
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
    const std::size_t cpus = static_cast<std::size_t>(CPU_COUNT(&mask));
    if (cpus < 2)
        GTEST_SKIP() << "workers stay unbound on a single allowed CPU";
    // One index per pool thread plus the submitter, each held until
    // all have arrived: every worker then runs exactly one index
    // concurrently and reports where it runs. Bound round-robin, the
    // workers cover min(workers, cpus) distinct CPUs; left to a
    // scheduler that keeps wakees on the waker's CPU, they share one.
    const std::size_t workers = hardwareThreads();
    const std::size_t n = workers + 1;
    std::atomic<std::size_t> arrived{0};
    std::vector<std::thread::id> who(n);
    std::vector<int> where(n, -1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    parallelFor(n, [&](std::size_t i) {
        ++arrived;
        while (arrived.load() < n &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        who[i] = std::this_thread::get_id();
        where[i] = sched_getcpu();
    });
    ASSERT_EQ(arrived.load(), n);
    const std::thread::id submitter = std::this_thread::get_id();
    std::set<std::thread::id> threads;
    std::set<int> seen;
    for (std::size_t i = 0; i < n; ++i) {
        threads.insert(who[i]);
        if (who[i] != submitter)
            seen.insert(where[i]);
    }
    ASSERT_EQ(threads.size(), n) << "not every pool thread took an index";
    EXPECT_EQ(seen.size(), std::min(workers, cpus));
}
#endif

} // namespace
} // namespace mcbp::parallel
