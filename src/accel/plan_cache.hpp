/**
 * @file
 * Thread-safe, singleflight cache of folded execution-plan costs
 * (RunMetrics) keyed by (accelerator identity, model, workload shape).
 *
 * The serving engine's paged recompute re-pricer is its one user: it
 * hits the same prefill-only shapes on every preemption at equal
 * resident lengths, so those prices repeat. First costing does not
 * come here: a trace with jittered lengths is mostly distinct
 * (prompt, decode) shapes, so a memo would cost more than it saves,
 * and each request is priced from a prepared cost instead
 * (engine::Accelerator::prepare). Accelerator::run() is deterministic
 * in its inputs, so the fold is computed once per key and shared:
 * threads racing on a cold key block on the one in-flight computation
 * and every thread reads the same bits afterwards.
 *
 * Keys are typed and compared field by field, exactly:
 *  - the accelerator identity is interned once (intern(): name plus
 *    configSummary, which covers every knob that changes pricing) into
 *    a small integer, so no per-request string is built;
 *  - the model name, and every Workload field plan() may read (task
 *    name, prompt and decode lengths, batch, kind, and the attention
 *    concentration by bit pattern).
 * A warm lookup is one hash probe in one shard of the
 * SingleflightMap (common/singleflight.hpp) that stores the entries.
 * Entries are never evicted, so returned references stay valid for the
 * cache's lifetime even while other threads insert.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "accel/report.hpp"
#include "common/annotations.hpp"
#include "common/singleflight.hpp"
#include "model/llm_config.hpp"
#include "model/workload.hpp"

namespace mcbp::accel {

/** Shared, singleflight folded-run cost store. */
class PlanCache
{
  public:
    /** An interned accelerator identity; only meaningful to the cache
     *  that interned it. */
    struct Identity
    {
        std::uint32_t id = 0;
    };

    /**
     * The identity of the accelerator named @p name with configuration
     * @p configSummary: equal pairs intern to the same Identity, any
     * difference in either to a distinct one.
     */
    Identity intern(const std::string &name,
                    const std::string &configSummary);

    /**
     * The metrics of (@p identity, @p model, @p task), computing them
     * via @p compute (a callable returning RunMetrics, deterministic in
     * the key; typically wraps Accelerator::run) exactly once per key
     * no matter how many threads race on it.
     */
    template <typename Compute>
    const RunMetrics &metrics(Identity identity,
                              const model::LlmConfig &model,
                              const model::Workload &task,
                              Compute &&compute)
    {
        return store_.get(keyOf(identity, model, task),
                          std::forward<Compute>(compute));
    }

    /** Number of cached (completed) entries, for tests. */
    std::size_t size() const { return store_.size(); }

    /**
     * Cost computations actually executed (not lookups). Under
     * singleflight this equals the number of distinct keys ever
     * requested, no matter how many threads raced on them.
     */
    std::uint64_t computeCalls() const { return store_.computes(); }

  private:
    // Key building and comparison live in plan_cache.cpp: consumers
    // may compile this header before C++20 (no defaulted comparisons
    // or std::bit_cast here).
    struct Key
    {
        std::uint32_t identity = 0;
        std::string model;
        std::string task;
        std::size_t promptLen = 0;
        std::size_t decodeLen = 0;
        std::size_t batch = 0;
        model::TaskKind kind{};
        std::uint64_t concentrationBits = 0;

        bool operator==(const Key &other) const;
    };

    struct KeyHash
    {
        std::size_t operator()(const Key &k) const;
    };

    static Key keyOf(Identity identity, const model::LlmConfig &model,
                     const model::Workload &task);

    SingleflightMap<Key, RunMetrics, KeyHash> store_;

    Mutex internMutex_;
    std::map<std::pair<std::string, std::string>, std::uint32_t>
        identities_ MCBP_GUARDED_BY(internMutex_);
};

/** A fresh cache wrapped for sharing across simulator layers. */
std::shared_ptr<PlanCache> makePlanCache();

} // namespace mcbp::accel
