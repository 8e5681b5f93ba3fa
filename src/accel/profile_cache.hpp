/**
 * @file
 * Thread-safe, singleflight cache of measured workload profiles
 * (WeightStats / AttentionStats). Profiling synthesizes tiles and runs
 * the functional BRCR/BSTC/BGPP engines, which is orders of magnitude
 * more expensive than the analytic cycle model consuming the result,
 * so every accelerator instance and every serving request should share
 * one cache, and no key may ever be profiled twice.
 *
 * Keys are typed and hold exactly the fields profiling reads (see
 * profileWeights/profileAttention), compared field by field, exactly
 * (doubles by bit pattern), with no model name:
 *  - weights: {hidden, dynamic range, bit width, seed};
 *  - attention: {head dim, contextBucket(promptLen), attention
 *    concentration, seed, alpha}.
 * Models that agree on those fields share one entry: the zoo's four
 * head-dim-128 models share their attention profiles, and OPT1B3 and
 * Bloom1B7 (hidden 2048, range 14) their weight profile.
 * Both stores are SingleflightMaps (common/singleflight.hpp): N threads
 * racing on a cold key block on the one in-flight computation instead
 * of each paying the full profiling cost, no lock is held while
 * profiling runs, and lookups of keys in different shards never meet
 * on a lock. profileCalls() counts the computations actually executed
 * (tests assert it stays at 1 per key under contention). Entries are
 * never evicted, so returned references stay valid for the cache's
 * lifetime even while other threads insert.
 *
 * warm() precomputes a batch of keys on the global thread pool
 * (common/parallel.hpp): cold-start fleet construction profiles on all
 * cores instead of serially on the first run() that needs each key.
 * Attention keys that differ only in alpha form one job that
 * synthesizes their attention sets once and evaluates every alpha on
 * them (the prepare-once/use-many split), and keys already ready are
 * skipped without a job, so re-warming a warm cache costs one probe per
 * key.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "accel/profiles.hpp"
#include "common/singleflight.hpp"
#include "model/llm_config.hpp"
#include "model/workload.hpp"
#include "quant/quantizer.hpp"

namespace mcbp::accel {

/**
 * The context an attention profile of a @p promptLen-token prompt is
 * measured at: min(2048, max(64, promptLen)) rounded up to a power of
 * two. profileAttention() depends on a workload only through its
 * clamped context and attention concentration, so the cache keys on
 * this bucket, not the task name, and profiles the bucket's canonical
 * context. Serving traces with jittered per-request lengths then share
 * a handful of deterministic entries (the zoo tasks' nominal lengths
 * are already powers of two, so figure benches see the stats of their
 * exact lengths).
 */
std::size_t contextBucket(std::size_t promptLen);

/**
 * One profiling need an accelerator announces for (model, task), fed
 * to ProfileCache::warm(). Equal keys are deduplicated there, so
 * callers may append requests per (accelerator, model, task) without
 * caring which ones coincide.
 */
struct ProfileRequest
{
    model::LlmConfig model;
    quant::BitWidth bitWidth = quant::BitWidth::Int8;
    std::uint64_t seed = 1;
    /** Weight-side profile wanted (profileWeights). */
    bool wantWeights = false;
    /** Attention-side profile wanted (profileAttention of task/alpha). */
    bool wantAttention = false;
    model::Workload task;
    double alpha = 0.6;
};

/** Shared, singleflight profile store. */
class ProfileCache
{
  public:
    /** Weight profile of @p model (computed once per key). */
    const WeightStats &weights(const model::LlmConfig &model,
                               quant::BitWidth bw, std::uint64_t seed);

    /** Attention profile of (@p model, @p task) at @p alpha. */
    const AttentionStats &attention(const model::LlmConfig &model,
                                    const model::Workload &task,
                                    double alpha, std::uint64_t seed);

    /**
     * Precompute every distinct key named by @p requests, fanning the
     * cold ones out over the thread pool (@p threads as in
     * parallel::parallelFor: 0 = full pool, 1 = serial), one job per
     * weight key and one per group of attention keys that differ only
     * in alpha. Stats are bit-identical to demand-filling the same keys
     * serially, because each key's computation is self-contained and
     * deterministic, and a group's batched profileAttention() gives
     * every alpha the bits of its single-alpha call.
     */
    void warm(const std::vector<ProfileRequest> &requests,
              std::size_t threads = 0);

    /** Number of cached (completed) entries, for tests. */
    std::size_t size() const;

    /**
     * Profiling computations actually executed (not lookups). Under
     * singleflight this equals the number of distinct keys ever
     * requested, no matter how many threads raced on them.
     */
    std::uint64_t profileCalls() const;

  private:
    // Key building and comparison live in profile_cache.cpp, as for
    // PlanCache::Key: consumers may compile this header before C++20.
    struct WeightKey
    {
        std::size_t hidden = 0;
        std::uint64_t dynamicRangeBits = 0;
        quant::BitWidth bitWidth{};
        std::uint64_t seed = 0;

        bool operator==(const WeightKey &other) const;
        bool operator<(const WeightKey &other) const;
    };

    /** Alpha is the last field, so in key order the keys of one
     *  attention set (all fields but alpha equal) are adjacent. */
    struct AttentionKey
    {
        std::size_t headDim = 0;
        std::size_t context = 0; ///< contextBucket(promptLen).
        std::uint64_t concentrationBits = 0;
        std::uint64_t seed = 0;
        std::uint64_t alphaBits = 0;

        bool operator==(const AttentionKey &other) const;
        bool operator<(const AttentionKey &other) const;
        /** Equal in every field but alpha: one synthesized set. */
        bool sameSet(const AttentionKey &other) const;
    };

    struct KeyHash
    {
        std::size_t operator()(const WeightKey &k) const;
        std::size_t operator()(const AttentionKey &k) const;
    };

    static WeightKey weightKey(const model::LlmConfig &model,
                               quant::BitWidth bw, std::uint64_t seed);
    static AttentionKey attentionKey(const model::LlmConfig &model,
                                     const model::Workload &task,
                                     double alpha, std::uint64_t seed);

    /** attention() with an explicit cap for profileAttention's own
     *  per-query fan-out (threads=1 keeps warm(…, 1) fully serial). */
    const AttentionStats &attentionAt(const model::LlmConfig &model,
                                      const model::Workload &task,
                                      double alpha, std::uint64_t seed,
                                      std::size_t threads);

    /** Profile the keys of one attention set (@p keys, all sameSet,
     *  named by @p request) in one batched profileAttention() call. */
    void attentionSet(const ProfileRequest &request,
                      const std::vector<AttentionKey> &keys,
                      std::size_t threads);

    SingleflightMap<WeightKey, WeightStats, KeyHash> weights_;
    SingleflightMap<AttentionKey, AttentionStats, KeyHash> attention_;
};

/** A fresh cache wrapped for sharing across accelerator instances. */
std::shared_ptr<ProfileCache> makeProfileCache();

/**
 * The process-wide cache: what an McbpAccelerator built without a cache
 * and GpuA100Model::run(model, task) profile through, so figure benches
 * and examples pay each key once per process. An engine::Registry keeps
 * a fresh cache of its own instead.
 */
std::shared_ptr<ProfileCache> sharedProfileCache();

} // namespace mcbp::accel
