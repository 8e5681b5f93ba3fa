/**
 * @file
 * SingleflightMap invariants (common/singleflight.hpp), the one store
 * behind ProfileCache and PlanCache:
 *  - threads racing over keys spread across every shard compute each
 *    key exactly once and all read the same value;
 *  - a reference stays valid and unchanged across many later inserts
 *    (and rehashes) in its own shard;
 *  - a throwing compute leaves the key retryable by the next caller;
 *  - ready() reports exactly the keys whose value is ready, without
 *    ever computing one.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/singleflight.hpp"

namespace mcbp {
namespace {

TEST(Singleflight, RacingThreadsComputeOncePerKeyAcrossShards)
{
    // Consecutive integers under the identity std::hash are spread
    // evenly over the shards by the multiplicative shard pick: 4096
    // keys put 63 to 66 in each of the 64 shards.
    SingleflightMap<std::size_t, std::size_t> map;
    constexpr std::size_t kKeys = 4096;
    constexpr std::size_t kThreads = 8;

    std::vector<std::atomic<std::size_t>> executed(kKeys);
    std::vector<std::vector<const std::size_t *>> seen(
        kThreads, std::vector<const std::size_t *>(kKeys, nullptr));
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            // Every thread walks the keys in the same order, and each
            // compute yields a while, so most keys are raced on while
            // in flight and the losers wait for the winner's value.
            for (std::size_t k = 0; k < kKeys; ++k) {
                seen[t][k] = &map.get(k, [&executed, k] {
                    ++executed[k];
                    for (int i = 0; i < 8; ++i)
                        std::this_thread::yield();
                    return k * 3 + 1;
                });
            }
        });
    }
    go.store(true);
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(map.computes(), kKeys);
    EXPECT_EQ(map.size(), kKeys);
    for (std::size_t k = 0; k < kKeys; ++k) {
        EXPECT_EQ(executed[k].load(), 1u) << "key " << k;
        for (std::size_t t = 0; t < kThreads; ++t) {
            ASSERT_EQ(seen[t][k], seen[0][k]); // one entry per key.
            EXPECT_EQ(*seen[t][k], k * 3 + 1);
        }
    }
}

/** Sends every key to one shard (and one bucket chain). */
struct SameShardHash
{
    std::size_t operator()(std::size_t) const { return 42; }
};

TEST(Singleflight, ReferenceSurvivesLaterInsertsInItsShard)
{
    SingleflightMap<std::size_t, std::vector<int>, SameShardHash> map;
    const std::vector<int> &first =
        map.get(0, [] { return std::vector<int>{7, 8, 9}; });
    const int *data = first.data();
    for (std::size_t k = 1; k <= 10000; ++k)
        (void)map.get(k, [k] { return std::vector<int>(1, int(k)); });

    EXPECT_EQ(map.size(), 10001u);
    // The same object, its storage untouched by the rehashes.
    EXPECT_EQ(&map.get(0, [] { return std::vector<int>{}; }), &first);
    EXPECT_EQ(first.data(), data);
    EXPECT_EQ(first, (std::vector<int>{7, 8, 9}));
    EXPECT_EQ(map.computes(), 10001u);
}

TEST(Singleflight, ThrowingComputeLetsTheNextCallerRetry)
{
    SingleflightMap<int, int> map;
    EXPECT_THROW((void)map.get(5,
                               []() -> int {
                                   throw std::runtime_error("flaky");
                               }),
                 std::runtime_error);
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.computes(), 1u);

    EXPECT_EQ(map.get(5, [] { return 11; }), 11);
    EXPECT_EQ(map.get(5, [] { return 99; }), 11); // cached now.
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(map.computes(), 2u); // the failed attempt and the retry.
}

TEST(Singleflight, ReadyProbesWithoutComputing)
{
    SingleflightMap<int, int> map;
    EXPECT_FALSE(map.ready(3));
    EXPECT_EQ(map.get(3, [] { return 30; }), 30);
    EXPECT_TRUE(map.ready(3));
    EXPECT_FALSE(map.ready(4));

    EXPECT_THROW((void)map.get(4,
                               []() -> int {
                                   throw std::runtime_error("flaky");
                               }),
                 std::runtime_error);
    EXPECT_FALSE(map.ready(4)); // the throw left the slot empty.

    // The probes themselves computed nothing and added no entry.
    EXPECT_EQ(map.computes(), 2u);
    EXPECT_EQ(map.size(), 1u);
}

} // namespace
} // namespace mcbp
