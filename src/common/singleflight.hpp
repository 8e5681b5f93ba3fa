/**
 * @file
 * SingleflightMap: the one thread-safe, compute-once store behind the
 * profile cache (accel/profile_cache.hpp) and the plan cache
 * (accel/plan_cache.hpp).
 *
 * get(key, compute) returns the value of @p key, running @p compute
 * exactly once per key no matter how many threads race on it: the
 * first caller to find the key's slot empty computes, racers block on
 * that one in-flight computation, and every caller reads the same
 * bits afterwards. If compute throws, the exception reaches that
 * caller and the next caller of the key retries. (The slot state is a
 * plain enum under the shard mutex rather than a std::once_flag, whose
 * retry-after-throw hangs under ThreadSanitizer's pthread_once
 * interceptor.)
 *
 * Storage is a fixed number of shards (kShards), each one mutex plus a
 * hash map of slots, picked by the key's hash. A lookup holds only its
 * shard's mutex, and only to find or insert the slot; compute runs
 * with no lock held. Threads working on different keys therefore
 * rarely meet on a lock, which is what lets trace costing scale with
 * threads.
 *
 * Reference stability: entries are never evicted, and each slot lives
 * in its own heap node of the shard's std::unordered_map, which
 * rehashing relinks but never moves. A reference returned by get()
 * stays valid and unchanged for the map's lifetime, however many keys
 * are inserted after it.
 *
 * Keys are compared with operator== and hashed with Hash; both must be
 * exact (see hashMix for combining field hashes). Two counters come
 * with the store: computes() counts compute invocations (a throwing
 * one included), size() the entries whose value is ready. ready(key)
 * probes one key without computing it, so a batch filler can skip the
 * keys already done.
 *
 * Public headers reach this one, and consumers may compile them before
 * C++20, so it uses no C++20 feature.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>

#include "common/annotations.hpp"

namespace mcbp {

/** Fold the hash @p value of one more key field into @p seed. */
constexpr std::size_t
hashMix(std::size_t seed, std::size_t value)
{
    return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                   (seed >> 2));
}

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class SingleflightMap
{
  public:
    /** The value of @p key, computed by @p compute (a callable
     *  returning Value) only if no earlier call completed it. */
    template <typename Compute>
    const Value &get(Key key, Compute &&compute)
    {
        Shard &shard = shards_[shardOf(Hash{}(key))];
        Slot *slot = nullptr;
        {
            MutexLock lock(shard.mutex);
            slot = &shard.slots.try_emplace(std::move(key)).first->second;
            if (slot->state == State::Computing) {
                ++shard.waiting;
                while (slot->state == State::Computing)
                    settled_.wait(shard.mutex);
                --shard.waiting;
            }
            if (slot->state == State::Ready)
                return slot->value;
            slot->state = State::Computing;
            ++shard.computes;
        }
        // This caller owns the slot until it settles it: no other
        // thread reads or writes the value meanwhile.
        try {
            slot->value = compute();
        } catch (...) {
            settle(shard, *slot, State::Empty);
            throw;
        }
        settle(shard, *slot, State::Ready);
        return slot->value;
    }

    /** Whether @p key's value is ready. A probe: it never computes,
     *  and a key being computed, or whose last compute threw, is not
     *  ready. */
    bool ready(const Key &key) const
    {
        const Shard &shard = shards_[shardOf(Hash{}(key))];
        MutexLock lock(shard.mutex);
        const auto it = shard.slots.find(key);
        return it != shard.slots.end() && it->second.state == State::Ready;
    }

    /** Entries whose value is ready. */
    std::size_t size() const
    {
        std::size_t n = 0;
        for (const Shard &shard : shards_) {
            MutexLock lock(shard.mutex);
            n += shard.entries;
        }
        return n;
    }

    /** Compute invocations run, a throwing one included. Without
     *  throws this equals size(): one per distinct key ever asked. */
    std::uint64_t computes() const
    {
        std::uint64_t n = 0;
        for (const Shard &shard : shards_) {
            MutexLock lock(shard.mutex);
            n += shard.computes;
        }
        return n;
    }

  private:
    static constexpr std::size_t kShardBits = 6;
    static constexpr std::size_t kShards = std::size_t{1} << kShardBits;

    enum class State { Empty, Computing, Ready };

    struct Slot
    {
        State state = State::Empty; ///< Guarded by its shard's mutex.
        Value value{}; ///< Written only by the caller computing it.
    };

    // Not over-aligned to a cache line: an over-aligned member makes
    // every store (one per McbpAccelerator, even a throwaway one) take
    // the slow aligned-allocation path, which costs more than the
    // occasional line shared by neighbouring shards.
    struct Shard
    {
        mutable Mutex mutex;
        std::unordered_map<Key, Slot, Hash> slots MCBP_GUARDED_BY(mutex);
        std::size_t entries MCBP_GUARDED_BY(mutex) = 0;
        std::uint64_t computes MCBP_GUARDED_BY(mutex) = 0;
        /** Callers blocked on another caller's compute. */
        std::size_t waiting MCBP_GUARDED_BY(mutex) = 0;
    };

    /** Publish the computing caller's outcome (Ready, or Empty after a
     *  throw so the next caller retries) and wake the shard's waiters. */
    void settle(Shard &shard, Slot &slot, State outcome)
    {
        bool wake = false;
        {
            MutexLock lock(shard.mutex);
            slot.state = outcome;
            if (outcome == State::Ready)
                ++shard.entries;
            wake = shard.waiting > 0;
        }
        if (wake)
            settled_.notify_all();
    }

    /** The hash's top bits pick the shard (Fibonacci hashing), so the
     *  shard's own map, which buckets on the low bits modulo a prime,
     *  still sees well-spread hashes. */
    static std::size_t shardOf(std::size_t hash)
    {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(hash) * 0x9e3779b97f4a7c15ULL) >>
            (64 - kShardBits));
    }

    std::array<Shard, kShards> shards_;
    /** Signalled when a slot that had waiters settles. One for all
     *  shards (waiting on it with any shard's mutex is allowed): waits
     *  happen only when callers race on one cold key. */
    CondVar settled_;
};

} // namespace mcbp
