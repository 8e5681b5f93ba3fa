/**
 * @file
 * Multi-request serving simulator with continuous batching.
 *
 * Takes a request trace (model::Request: arrival time + per-request
 * prompt/decode lengths) and an engine::Accelerator, and schedules the
 * requests the way an LLM serving engine does: requests join the batch
 * as they arrive (up to maxBatch), prefill runs when a request is
 * admitted, and every scheduler iteration advances all in-flight
 * requests by one decode token, retiring finished ones immediately
 * (continuous batching, as in Orca/vLLM).
 *
 * The simulator splits into two layers:
 *  - this file costs each request from a batch-1 run of the wrapped
 *    Accelerator and aggregates the report;
 *  - event_core.hpp plays the costed trace through a discrete-event
 *    loop, delegating admission order to a pluggable Scheduler
 *    (scheduler.hpp) and KV accounting to the selected KvPolicy
 *    (kv_block_manager.hpp).
 *
 * The cost model is built from the per-phase PhaseMetrics the unified
 * run() interface already produces for a batch-1 run of each request:
 *   - prefill costs the request's own prefill cycles;
 *   - a decode iteration re-composes the linear segment's overlap at
 *     the batch's size: max(shared weight stream, summed per-request
 *     linear work) — the weight fetch/decode is shared by everyone
 *     decoding that step (the amortization Fig 20's B=128 GPU point
 *     exploits), while GEMM compute scales with the batch — plus the
 *     summed per-token attention/SFU cycles. Energy is split the same
 *     way, so batching lowers J/token as it lowers cycles.
 * This makes batched total busy time provably <= the serial sum of the
 * individual runs, with equality at maxBatch=1.
 *
 * Serving is memory-bounded when a KV capacity is configured
 * (kvCapacityBytes > 0; any value <= 0 means unbounded — the unified
 * sentinel). Under the default `reserve` policy each request reserves
 * kvBytesPerToken x (prompt + decode) bytes at admission and holds
 * them until completion. Under `paged`, KV is allocated in blocks of
 * kvBlockTokens tokens as requests actually grow, admission charges
 * only current occupancy, and KV-pressure preempts the youngest
 * running request for recompute — its restart prefill (prompt +
 * generated tokens) is re-priced through the accelerator's prefill
 * path. Either way peak residency (kvPeakBytes) never exceeds the
 * budget; the report's preemption/recompute counters and queue-time
 * percentiles expose what the bound costs. Requests that generate no
 * tokens (decodeLen == 0) retain no KV and are never charged for any.
 *
 * Requests for different models never share a batch. Under the default
 * strict-FIFO policy a different-model request at the queue head pauses
 * admission until the current batch drains (bounded wait — skipping it
 * would starve that model under continuous same-model arrivals); the
 * skip-ahead policy makes the opposite trade.
 */
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "accel/plan_cache.hpp"
#include "engine/accelerator.hpp"
#include "engine/event_core.hpp"
#include "engine/kv_block_manager.hpp"
#include "engine/scheduler.hpp"
#include "model/request.hpp"

namespace mcbp::engine {

/** Retry/SLO knobs of fault-tolerant serving (only consulted when
 *  ServingOptions::faults is enabled; then every seconds knob must be
 *  finite and >= 0, or simulate() is fatal). */
struct RetryOptions
{
    /** Fault-kill restarts before a request is dropped. */
    std::size_t maxRetries = 3;
    /** Capped exponential backoff: retry n waits
     *  min(cap, base * 2^(n-1)) simulated seconds after the kill. */
    double backoffBaseSeconds = 0.05;
    double backoffCapSeconds = 1.0;
    /** Per-request completion deadline from arrival (0 = none).
     *  Queued or retrying work past it is dropped; an actively
     *  decoding request runs to completion and merely misses the SLO
     *  (counted against sloAttainment/goodput, not dropped). */
    double deadlineSeconds = 0.0;
};

/** Scheduler knobs. */
struct ServingOptions
{
    /** Maximum requests decoding together (continuous batch size). */
    std::size_t maxBatch = 32;
    /** Admission-order policy (see scheduler.hpp). */
    SchedulerPolicy policy = SchedulerPolicy::Fifo;
    /**
     * KV-cache capacity in bytes the in-flight requests may hold
     * (<= 0 = unbounded; the one sentinel shared with the cluster
     * path's Capabilities::hbmCapacityBytes, whose 0 means unknown).
     * A deployment derives it from the accelerator's
     * Capabilities::hbmCapacityBytes minus the resident weights.
     */
    double kvCapacityBytes = 0.0;
    /** KV admission policy (kv_block_manager.hpp). `reserve` is the
     *  conservative pre-paging rule and the default; `paged` admits
     *  against current occupancy with preempt-and-recompute. */
    KvPolicy kvPolicy = KvPolicy::Reserve;
    /** Tokens per KV block under the paged policy. */
    std::size_t kvBlockTokens = 16;
    /** Paged admission's free-space watermark (see KvOptions). */
    double kvLowWatermark = 0.05;
    /**
     * Aging weight of the shortest-prompt scheduler (see
     * makeScheduler): key cycles credited per cycle waited, bounding
     * long-prompt starvation. 0 restores pure SJF.
     */
    double sjfAgingWeight = 1.0;
    /**
     * Thread cap for the profile-cache warm-up that precedes request
     * costing (parallel::parallelFor semantics: 0 = full global pool,
     * 1 = serial). Either way the profiled stats — and therefore the
     * whole report — are bit-identical; this only changes wall-clock.
     */
    std::size_t profileThreads = 0;
    /**
     * Thread cap for the per-request costing fan-out itself (same
     * semantics). Each request is priced independently from a prepared
     * cost (Accelerator::prepare) and written in place; the serial
     * totals are summed in index order afterwards, so the costed trace
     * — and the whole report — is bit-identical at every thread count.
     */
    std::size_t costingThreads = 0;
    /**
     * Decode-iteration stepping of the event core. See event_core.hpp
     * for the coalesced == per-token equivalence contract.
     */
    StepMode stepMode = StepMode::Coalesced;
    /**
     * Fault injection (sim/fault_model.hpp). Defaults off; a disabled
     * spec skips every fault branch and the report is bit-identical
     * to a build without the fault layer. The timeline is built over
     * the accelerator's kvShards fault domains and stream-separated
     * from trace synthesis (kFaultStream), so enabling faults never
     * perturbs the costed trace.
     */
    sim::FaultSpec faults{};
    /** Retry/backoff/deadline knobs of the fault layer. */
    RetryOptions retry{};
    /**
     * Degraded-topology accelerator (the surviving fleet after one
     * chip failure; see health.hpp's degradedSpec to derive its spec
     * string). When set, chip failures put serving in degraded mode
     * at this accelerator's prices instead of a full outage, and one
     * permanent failure is survivable. Not owned; must outlive the
     * simulator. Must run at the same clock as the primary.
     */
    const Accelerator *degradedAccel = nullptr;
};

/** Per-request outcome. */
struct RequestMetrics
{
    std::size_t id = 0;
    double arrivalSeconds = 0.0;
    /** Admission = start of this request's first prefill (queue wait
     *  ends; a preempted request keeps its first admission time). */
    double admissionSeconds = 0.0;
    double firstTokenSeconds = 0.0; ///< End of the first decode step.
    double completionSeconds = 0.0;
    std::size_t decodeTokens = 0;
    /** KV bytes of the request's largest residency while in flight
     *  (block-rounded under the paged policy; 0 when decodeTokens
     *  is 0 — prefill-only requests retain no KV). */
    double kvBytes = 0.0;
    /** Times this request was preempted for recompute (paged). */
    std::size_t preemptions = 0;
    /** Decode tokens this request re-generated after preemptions. */
    std::size_t recomputedTokens = 0;
    /** Fault-kill restarts this request survived before completing. */
    std::size_t retries = 0;
    /** Completed past its configured deadline (SLO miss; the request
     *  still ran to completion — only queued work is dropped). */
    bool sloMiss = false;
    /** Energy attributed to this request, with the shared decode
     *  weight stream amortized across its batch mates (recompute
     *  prefills included). */
    double joules = 0.0;

    double latencySeconds() const
    {
        return completionSeconds - arrivalSeconds;
    }

    /** Time spent queued before the engine started the prefill. */
    double queueSeconds() const
    {
        return admissionSeconds - arrivalSeconds;
    }
};

/** Aggregate serving outcome. */
struct ServingReport
{
    std::string accelerator;
    std::string scheduler; ///< Admission policy name.
    std::string kvPolicy;  ///< KV admission policy name.
    /** Per-request metrics, in completion order. */
    std::vector<RequestMetrics> requests;

    double makespanSeconds = 0.0; ///< Last completion time.
    /** Engine-occupied time under continuous batching. */
    double busySeconds = 0.0;
    /** Sum of the isolated single-request run times (no batching). */
    double serialSeconds = 0.0;
    /** Sum of the isolated single-request run energies (no batching). */
    double serialJoules = 0.0;

    double meanLatencySeconds = 0.0;
    double p50LatencySeconds = 0.0;
    double p90LatencySeconds = 0.0;
    double p99LatencySeconds = 0.0;

    /** Queue-time (arrival -> admission) percentiles. */
    double p50QueueSeconds = 0.0;
    double p90QueueSeconds = 0.0;
    double p99QueueSeconds = 0.0;

    /** Time-to-first-token (arrival -> end of the first decode step;
     *  completion for prefill-only requests) percentiles. */
    double p50FirstTokenSeconds = 0.0;
    double p90FirstTokenSeconds = 0.0;
    double p99FirstTokenSeconds = 0.0;
    /** Mean time per output token after the first (over requests with
     *  >= 2 decode tokens; 0 when none qualify). */
    double meanTpotSeconds = 0.0;

    double tokensPerSecond = 0.0; ///< Generated tokens / makespan.
    double joulesPerToken = 0.0;
    double meanBatchOccupancy = 0.0; ///< Mean in-flight per iteration.
    std::size_t peakBatch = 0;

    /** Peak in-flight KV residency (block-rounded when paged). */
    double kvPeakBytes = 0.0;
    /** kvPeakBytes / configured capacity (0 when unbounded). */
    double kvUtilization = 0.0;

    /** Paged policy: preempt-and-recompute totals over the run. */
    std::size_t preemptions = 0;
    std::size_t recomputedTokens = 0;
    /** Paged policy: mean block fill (needed/allocated bytes) over
     *  decode iterations — 1 - internal fragmentation. 0 for reserve
     *  (no blocks exist). */
    double kvBlockUtilization = 0.0;
    /** Paged policy: peak internal fragmentation in bytes. */
    double kvFragmentationPeakBytes = 0.0;

    /** Decode iterations simulated, and the decode loop passes that
     *  actually executed (fewer under coalesced stepping — the ratio
     *  is the coalescing win; see EventStats::decodeWindows). */
    std::size_t decodeIterations = 0;
    std::size_t decodeWindows = 0;
    /** Candidates built for scheduler consults (see
     *  EventStats::admissionCandidates): linear in the trace for FIFO
     *  and skip-ahead, whatever the queue depth. */
    std::size_t admissionCandidates = 0;
    /** Scheduling decisions in decision order (request ids): what the
     *  coalescing equivalence contract compares verbatim against the
     *  per-token reference (see EventStats). */
    std::vector<std::size_t> admissionOrder;
    std::vector<std::size_t> preemptionOrder;

    // ---- Availability (fault injection; zero on zero-fault runs) ----
    /** Set when the trace was non-empty but no request completed
     *  (everything rejected or dropped): the latency/TTFT/TPOT
     *  percentiles are zeroed rather than computed over an empty
     *  sample vector. */
    bool noCompletions = false;
    std::size_t faultEvents = 0;    ///< Fault-timeline events hit.
    std::size_t killedInFlight = 0; ///< In-flight kills by chip faults.
    std::size_t retriesScheduled = 0;
    std::size_t droppedRequests = 0;
    std::size_t faultLostTokens = 0; ///< Decode progress lost to kills.
    /** Restart prefills replayed after fault kills. */
    double faultRecomputeSeconds = 0.0;
    /** Time the fleet served on the degraded topology / was down. */
    double degradedSeconds = 0.0;
    double outageSeconds = 0.0;
    /** degradedSeconds / makespan (0 when the makespan is 0). */
    double degradedFraction = 0.0;
    /** SLO-compliant generated tokens / makespan. With no deadline
     *  configured every completed token is compliant, so this equals
     *  tokensPerSecond on zero-fault runs. */
    double goodputTokensPerSecond = 0.0;
    /** Fraction of the trace completed within its deadline (1 when no
     *  deadline is configured and nothing was dropped). */
    double sloAttainment = 0.0;
    /** Retry schedulings and drops in decision order (request ids) —
     *  part of the coalescing equivalence contract. */
    std::vector<std::size_t> retryOrder;
    std::vector<std::size_t> dropOrder;
    /** Per-fault-event blast radius, in timeline order. */
    struct FaultImpact
    {
        std::size_t eventId = 0;
        double seconds = 0.0; ///< Scheduled instant.
        std::string kind;     ///< sim::toString(FaultKind).
        std::size_t chip = 0;
        bool permanent = false;
        std::size_t killed = 0;
        std::size_t dropped = 0;
    };
    std::vector<FaultImpact> faultLog;

    /** Throughput gain of batching vs serving the trace serially. */
    double batchingSpeedup() const
    {
        return busySeconds > 0.0 ? serialSeconds / busySeconds : 1.0;
    }
};

/**
 * Recompute every sample-derived aggregate of @p report from its
 * requests vector (latency/queue/TTFT percentiles, mean TPOT,
 * tokens-per-second, goodput, SLO attainment, joules-per-token) —
 * makespanSeconds must already be set. Sets noCompletions and leaves
 * the fields zeroed when requests is empty. Shared by simulate()'s
 * aggregation and the fleet report merge (engine/fleet.hpp), so a
 * merged fleet report's percentiles follow exactly the single-engine
 * definition.
 */
void finalizeServingAggregates(ServingReport &report,
                               std::size_t traceSize);

/** Continuous-batching serving simulator over one accelerator. */
class ServingSimulator
{
  public:
    explicit ServingSimulator(const Accelerator &accel,
                              ServingOptions opts = {});

    /**
     * Simulate @p trace to completion. An empty trace yields a
     * well-defined zeroed report (names set, every metric 0) rather
     * than an error — callers filtering traces need no special case.
     */
    ServingReport simulate(const std::vector<model::Request> &trace) const;

    /** The costing half of simulate(): every request priced from a
     *  batch-1 run, plus the serial-baseline totals. */
    struct CostedTrace
    {
        std::vector<CostedRequest> costs; ///< Trace order.
        double clockGhz = 0.0;
        /** Sum of the isolated single-request run times/energies. */
        double serialSeconds = 0.0;
        double serialJoules = 0.0;
    };

    /**
     * Cost @p trace without simulating it: prepare one cost per
     * distinct (topology, model, task, context bucket) after warming
     * their profiles, then price every request from its prepared cost
     * on up to ServingOptions::costingThreads threads. No plan is built
     * and nothing enters the plan cache. The result is bit-identical at
     * every thread count (each price depends only on its request; the
     * totals are summed in index order). Exposed so benches can time
     * and verify costing in isolation; simulate() is exactly
     * costTrace() + the event loop + aggregation.
     */
    CostedTrace costTrace(const std::vector<model::Request> &trace) const;

    /**
     * The folded-cost cache behind the paged recompute re-pricer, where
     * prices repeat (preemptions at equal resident lengths). First
     * costing (costTrace) never touches it, so it stays empty on runs
     * that preempt nothing. Owned per simulator (keyed by accelerator
     * identity, so sharing wider would also be sound); exposed for
     * tests and cache-effectiveness reporting.
     */
    std::shared_ptr<accel::PlanCache> planCache() const
    {
        return planCache_;
    }

  private:
    KvOptions kvOptions() const;
    /** The accelerator serving @p topology. */
    const Accelerator &accelOn(Topology topology) const;
    /** The plan-cached batch-1 run of (@p m, @p w) on @p topology. */
    const accel::RunMetrics &runOn(Topology topology,
                                   const model::LlmConfig &m,
                                   const model::Workload &w) const;

    const Accelerator *accel_;
    ServingOptions opts_;
    std::shared_ptr<accel::PlanCache> planCache_;
    /** Topologies every request is priced on: 1, or kTopologies when
     *  faults are armed and a degraded accelerator was supplied. */
    std::size_t topologies_ = 1;
    /** Each priced topology's name + configSummary (every knob that
     *  changes pricing), interned once: the plan-cache key's identity.
     *  Both topologies share planCache_ under distinct identities. */
    std::array<accel::PlanCache::Identity, kTopologies> identity_{};
};

} // namespace mcbp::engine
