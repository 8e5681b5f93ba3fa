/**
 * @file
 * Pluggable admission schedulers for the serving engine.
 *
 * The discrete-event core (event_core.hpp) owns the mechanics — the
 * clock, arrivals, KV accounting, decode iterations — and delegates
 * exactly one decision to a Scheduler: given the waiting queue (in
 * arrival order), which entries are currently admissible (free batch
 * slot, same model as the running batch, KV allocation fits), and the
 * current KV-pool pressure, which request is admitted next?
 *
 * The queue reaches the scheduler as an AdmissionView: a lazy view
 * whose entry i is built (wait, prefill price, admissibility) on
 * first access and memoized for the rest of that consult. A policy
 * pays only for the entries it reads, which is what keeps admission
 * linear in the trace when an overloaded queue holds thousands of
 * requests. Cost per admission, in candidates built:
 *
 *  - strict FIFO: O(1) — the head only.
 *  - skip-ahead: O(first admissible entry) — it stops there.
 *  - shortest-prompt-first: O(queue) — the key needs every entry.
 *
 * Three policies ship:
 *  - strict FIFO: admit the queue head or nobody. A different-model or
 *    KV-blocked head stalls admission (head-of-line blocking), which
 *    bounds every request's wait — the PR-1 behaviour, and the default.
 *  - skip-ahead: admit the oldest admissible request, skipping a
 *    blocked head so same-model traffic keeps batching through a model
 *    switch or a KV-capacity stall.
 *  - shortest-prompt-first: admit the admissible request with the
 *    cheapest *aged* prefill — SJF on the prefill cost with an aging
 *    credit (agingWeight x the candidate's queue wait, in cycles)
 *    subtracted from its key, so a long prompt cannot be starved by a
 *    sustained flood of short ones: once it has waited its own extra
 *    prefill cost, it outranks any fresh short arrival. agingWeight 0
 *    restores the pure (starvation-prone) SJF.
 *
 * Schedulers also see the KV pool's free-space pressure (KvPressure)
 * and may return npos to defer admission entirely — e.g. to hold
 * blocks back for running requests when the pool is nearly full. The
 * built-in policies admit whenever something is admissible; the event
 * core already enforces the paged low-watermark in the admissible
 * flag itself.
 *
 * Coalescing contract: a Scheduler must be stateless (pick() decides
 * from its arguments alone — the class contract below). The event
 * core's coalesced stepping relies on this to skip pick() calls whose
 * candidate sets provably cannot have gained an admissible entry
 * since the last decision (no arrival, completion, preemption or
 * paged block allocation in between); a deferral (npos while a
 * candidate is admissible — the core asks view.anyAdmissible() after
 * an npos, reusing the entries pick() already built) is a live
 * decision, so the core re-asks on the per-token cadence in that
 * case. A stateful scheduler that changes its answer with nothing but
 * waitCycles aging would need StepMode::PerToken.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/kv_block_manager.hpp"

namespace mcbp::engine {

/** Selectable admission policies (ServingOptions::policy). */
enum class SchedulerPolicy
{
    Fifo,
    SkipAhead,
    ShortestPromptFirst,
};

/** Canonical name, e.g. "fifo", "skip-ahead", "shortest-prompt". */
std::string toString(SchedulerPolicy policy);

/** Parse a policy name; fatal() on unknown names. */
SchedulerPolicy schedulerPolicyFromString(const std::string &name);

/** All selectable policies (for sweeps and validation messages). */
const std::vector<SchedulerPolicy> &allSchedulerPolicies();

/** One waiting request, as the scheduler sees it. */
struct AdmissionCandidate
{
    std::size_t promptLen = 0;
    std::size_t decodeLen = 0;
    /** Cycles this candidate has waited since its arrival. */
    double waitCycles = 0.0;
    /**
     * Prefill cycles admitting it would pay right now (for a
     * preempted request this is the re-priced recompute prefill over
     * its prompt + generated tokens).
     */
    double prefillCycles = 0.0;
    /** Free slot + model compatible + KV allocation fits, right now. */
    bool admissible = false;
};

/**
 * The waiting queue (arrival order) as one admission consult sees it.
 * Entry i is built by the event core's admissibility function on first
 * access and memoized until the next reset(), so a policy that reads
 * the head only builds one candidate however long the queue is.
 * Single-threaded, like the event loop that owns it.
 */
class AdmissionView
{
  public:
    /** Builds the candidate at queue position i, from live core state. */
    using Builder = std::function<AdmissionCandidate(std::size_t)>;

    explicit AdmissionView(Builder build);

    /** Start a new consult over @p size entries, forgetting every
     *  memoized candidate (O(1); the memo is stamped per consult). */
    void reset(std::size_t size);

    std::size_t size() const { return size_; }

    /** Entry @p i (< size()), built on first access this consult. */
    const AdmissionCandidate &operator[](std::size_t i) const;

    /** Whether any entry is admissible: walks from the head, stops at
     *  the first admissible entry and reuses memoized ones. */
    bool anyAdmissible() const;

    /** Candidates built over every consult so far (host-independent
     *  admission work; EventStats::admissionCandidates). */
    std::size_t built() const { return built_; }

  private:
    struct Slot
    {
        AdmissionCandidate candidate;
        std::uint64_t consult = 0; ///< Consult that built it; 0 = none.
    };

    Builder build_;
    std::size_t size_ = 0;
    std::uint64_t consult_ = 0;
    mutable std::vector<Slot> memo_;
    mutable std::size_t built_ = 0;
};

/** Admission-order policy. Stateless; the event core owns all state. */
class Scheduler
{
  public:
    /** Returned by pick() when nothing should be admitted yet. */
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    virtual ~Scheduler() = default;

    virtual std::string name() const = 0;

    /**
     * Index into @p waiting (arrival order) of the request to admit
     * next, or npos to wait — e.g. deferring under @p kv pressure.
     * Must return an admissible index. Read only the entries the
     * policy needs: each one read is built (and counted) on demand.
     * Deferral requires someone else to make progress: npos with an
     * idle engine and no future arrival left to wake it is a contract
     * violation the event core panics on (admission livelock).
     */
    virtual std::size_t
    pick(const AdmissionView &waiting, const KvPressure &kv) const = 0;
};

/**
 * Build the scheduler implementing @p policy. @p sjfAgingWeight is the
 * shortest-prompt policy's starvation bound: the aging credit per
 * waited cycle subtracted from a candidate's prefill-cycle key (1.0 =
 * cycle-for-cycle, the default; 0 = pure SJF). Other policies ignore
 * it.
 */
std::unique_ptr<Scheduler> makeScheduler(SchedulerPolicy policy,
                                         double sjfAgingWeight = 1.0);

} // namespace mcbp::engine
