/**
 * @file
 * Discrete-event core of the serving engine.
 *
 * ServingSimulator costs every request from a batch-1 run of the
 * underlying Accelerator (a CostedRequest); this core then plays the
 * trace forward in cycle time: it pulls arrivals into the waiting
 * queue, asks the pluggable Scheduler which waiting request to admit
 * (charging its prefill and its KV-cache allocation), and advances
 * the active batch one decode token per iteration, re-composing the
 * shared weight stream against the batch's summed linear work exactly
 * the way the wrapped model composed it at batch 1.
 *
 * Memory-boundedness lives here, under one of two KV policies
 * (kv_block_manager.hpp):
 *
 *  - Reserve: every request reserves the KV bytes of its full
 *    (prompt + decode) residency at admission and releases them at
 *    completion, so an admitted request can always run to completion
 *    and no preemption is ever needed (the conservative rule).
 *
 *  - Paged: KV is allocated in blocks as a request actually grows.
 *    Admission charges only the current residency, each decode
 *    iteration appends one token per active request (allocating a
 *    block when the last one fills), and when the pool cannot hold
 *    the batch's growth the youngest running request is preempted:
 *    its blocks are freed, its recompute prefill (prompt + generated
 *    tokens) is re-priced through the caller-supplied PrefillPricer,
 *    and it rejoins the head of the waiting queue.
 *
 * Either way, in-flight KV never exceeds the configured capacity
 * (<= 0 = unbounded, the unified sentinel), and requests whose
 * decodeLen is 0 hold no KV at all.
 *
 * Stepping: between discrete events — the next arrival, the soonest
 * completion in the batch (min remainingTokens), the next paged block
 * boundary, a scheduler deferral — the active set and the per-iteration
 * cost are constant, so the core advances k identical iterations in
 * closed form (StepMode::Coalesced, the default) instead of looping
 * per token. Scheduling decisions (admissions, preemption order,
 * completion order) are exactly those of the per-token reference;
 * aggregate cycle/energy totals agree to ~1e-9 relative (the closed
 * forms re-associate floating-point sums). StepMode::PerToken selects
 * the reference path.
 *
 * Fault tolerance (FaultInputs; sim/fault_model.hpp): fault events
 * are first-class window boundaries — a coalesced window never
 * crosses the next fault instant, a pending retry's backoff expiry,
 * or a waiting request's deadline, so the per-token and coalesced
 * paths make identical kill/retry/drop decisions. A chip failure
 * kills every in-flight request (KV freed, decode progress lost,
 * restart prefill re-armed at the full prompt) and schedules a
 * retry with capped exponential backoff in simulated time; past the
 * retry budget or the per-request deadline the request drops. A
 * failed chip puts the fleet in degraded mode (requests decode at
 * their degraded-topology rates) when the caller supplied them, in
 * outage (no decode, no admission until repair) otherwise; a second
 * permanent failure is fatal to the fleet and drops all remaining
 * work. Deadlines apply to queued work only: an actively decoding
 * request runs to completion and merely misses the SLO. With
 * FaultInputs disabled every fault branch is skipped and the run is
 * bit-identical to the pre-fault engine.
 */
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "engine/kv_block_manager.hpp"
#include "engine/scheduler.hpp"
#include "model/llm_config.hpp"
#include "model/request.hpp"
#include "sim/fault_model.hpp"

namespace mcbp::engine {

/** Decode-iteration stepping strategy of the event core. */
enum class StepMode
{
    Coalesced, ///< Closed-form multi-iteration advance between events.
    PerToken,  ///< One loop pass per decode token (reference path).
};

/** Canonical name: "coalesced" or "per-token". */
std::string toString(StepMode mode);

/** Topologies a request is priced on: CostedRequest::price's index. */
enum Topology : std::size_t
{
    kHealthy = 0,  ///< The full fleet.
    kDegraded = 1, ///< The surviving fleet after a chip failure.
};

/** Number of Topology values. */
constexpr std::size_t kTopologies = 2;

/**
 * Price of one request on one topology, from its batch-1 run: the
 * prefill, and the decode run split per token into the shared weight
 * stream, per-request linear work, attention/SFU and the collective
 * floor, with the energy split the same way.
 */
struct TopologyPrice
{
    /** Prefill cycles the next admission pays (re-priced to the
     *  recompute length after a preemption). */
    double prefillCycles = 0.0;
    /** Full-prompt restart price: a fault kill loses all decode
     *  progress, so the next admission replays the original prefill
     *  (unlike a paged preemption, which re-prices prompt+progress). */
    double basePrefillCycles = 0.0;
    double basePrefillJoules = 0.0;
    /** Prefill energy charged at the next admission, in the topology
     *  the prefill runs on (0 once charged). */
    double pendingPrefillJoules = 0.0;
    /** Per-token weight-stream cycles (shared across a decode batch). */
    double weightCyclesPerToken = 0.0;
    /** Per-token linear work (GEMM + activations; per-request, but it
     *  overlaps the shared weight stream). */
    double linearCyclesPerToken = 0.0;
    /** Per-token attention/SFU cycles (per-request, not overlapped). */
    double otherCyclesPerToken = 0.0;
    /** Fixed per-iteration latency floor (cluster all-reduce hops),
     *  shared by the batch like the weight stream (max, not sum). */
    double fixedCyclesPerToken = 0.0;
    /** Energy split mirroring the cycle split, so the scheduler can
     *  amortize the shared weight stream in joules too. */
    double weightJoulesPerToken = 0.0;
    double otherJoulesPerToken = 0.0;
    /** Composition rule of the wrapped model's linear segment
     *  (see PhaseMetrics::memorySerialized). */
    bool memorySerialized = false;
    /**
     * Pipeline stages of the topology's accelerator
     * (Capabilities::pipelineStages; 1 = unpipelined). Distinct
     * requests' decode traversals overlap across stages, so a batch's
     * summed linear/attention work drains at the bottleneck stage —
     * sum/stages — but never faster than one full traversal (the max
     * over the batch). stages=1 reduces to the plain sum.
     */
    std::size_t stages = 1;
};

/** Precomputed cost model of one request (from a batch-1 run). */
struct CostedRequest
{
    const model::Request *req = nullptr;
    /** The request's model, resolved once at costing so the paged
     *  re-pricer never re-scans the model zoo per preemption. */
    const model::LlmConfig *model = nullptr;
    /**
     * The request's workload with decodeLen forced to 0: the recompute
     * prefill shape, precomputed at costing so a preemption re-prices
     * only the prefill it will actually replay (never the decode phase
     * it throws away) and pays no findTask/withLengths rebuild.
     */
    model::Workload recomputeShape;
    double arrivalCycles = 0.0;
    /**
     * The request's price on each topology. price[kHealthy] is always
     * set; price[kDegraded] is priced on the surviving-fleet
     * accelerator (health.hpp) only when faults are armed and a
     * degraded accelerator was supplied (FaultInputs::hasDegraded),
     * and is what admission and the decode iteration read while the
     * fleet runs degraded.
     */
    std::array<TopologyPrice, kTopologies> price{};
    /** Accumulated as the request is served, starting at its first
     *  admission (which charges the pending prefill energy). */
    double joules = 0.0;
    /** KV-cache bytes of this request's full footprint (its largest
     *  residency; policy-quantized — see kvFootprintBytes). Reserve
     *  admission charges exactly this; paged admission grows to at
     *  most this. 0 for decodeLen == 0 requests. */
    double kvBytes = 0.0;
    /** Per-token KV bytes of the request's model. */
    double kvBytesPerToken = 0.0;
    /** Prompt tokens resident after (re)prefill. */
    std::size_t promptTokens = 0;
    std::size_t remainingTokens = 0;
    bool firstTokenSeen = false;
    double firstTokenCycles = 0.0;
    /** Written by the event core as the request is served. */
    bool admitted = false;
    double admissionCycles = 0.0; ///< First admission (queue wait ends).
    double completionCycles = 0.0;
    /** The KV the request holds in the pool right now (the footprint
     *  under Reserve, its block-rounded residency under Paged). */
    double kvAllocatedBytes = 0.0;
    double kvNeededBytes = 0.0;
    std::size_t preemptions = 0;
    std::size_t recomputedTokens = 0;

    // ---- Fault-tolerant serving state (inert on zero-fault runs) ----
    std::size_t retries = 0;    ///< Fault-kill restarts so far.
    double retryAtCycles = 0.0; ///< Backoff expiry (earliest retry).
    double deadlineCycles = 0.0; ///< Drop-dead clock (0 = none).
    /** The next admission is a post-kill restart: its prefill counts
     *  as fault-attributable recompute. */
    bool restartPending = false;
    bool dropped = false;
};

/**
 * Fault-injection inputs of one run, pre-converted to CYCLES (the
 * serving layer rescales the seconds timeline once the accelerator's
 * clock is known). Default-constructed = faults off: every fault
 * branch in the loop is skipped and the run is bit-identical to the
 * pre-fault engine.
 */
struct FaultInputs
{
    bool enabled = false;
    /** Discrete fault events, sorted ascending by `at` (cycles). */
    std::vector<sim::FaultEvent> timeline;
    /** Fault-kill retries before a request is dropped. */
    std::size_t maxRetries = 3;
    /** Capped exponential backoff: retry n waits
     *  min(cap, base * 2^(n-1)) simulated cycles after the kill. */
    double backoffBaseCycles = 0.0;
    double backoffCapCycles = 0.0;
    /** Per-request completion deadline from arrival (0 = none):
     *  queued or retrying work past it is dropped. */
    double deadlineCycles = 0.0;
    /** Every request carries its price[kDegraded], so chip failures
     *  degrade the fleet instead of taking it down. */
    bool hasDegraded = false;
};

/** Aggregate outcome of one event-loop run, in cycles. */
struct EventStats
{
    double clockCycles = 0.0;   ///< Final clock (makespan).
    double busyCycles = 0.0;    ///< Engine-occupied cycles.
    double occupancySum = 0.0;  ///< Sum of batch sizes over iterations.
    std::size_t iterations = 0; ///< Decode iterations simulated.
    /**
     * Decode loop passes actually executed: equals iterations under
     * per-token stepping, and the (much smaller) number of coalesced
     * windows otherwise — the coalescing speedup is their ratio.
     */
    std::size_t decodeWindows = 0;
    /**
     * Admission candidates built across every scheduler consult
     * (AdmissionView entries actually read, deferral checks included):
     * the event core's host-independent admission work. One per
     * admission under FIFO whenever the head is admissible; the whole
     * queue per consult under shortest-prompt.
     */
    std::size_t admissionCandidates = 0;
    std::size_t peakBatch = 0;
    double kvPeakBytes = 0.0;   ///< Peak in-flight KV residency.
    /** Paged policy: preempt-and-recompute counters. */
    std::size_t preemptions = 0;
    std::size_t recomputedTokens = 0;
    /** Peak internal fragmentation (allocated - needed); always 0
     *  under Reserve. */
    double kvFragmentationPeakBytes = 0.0;
    /** Paged policy: sum over decode iterations of needed/allocated
     *  bytes (block fill), and the iterations counted. */
    double kvBlockUtilizationSum = 0.0;
    std::size_t kvBlockUtilizationIters = 0;
    /**
     * Every scheduling decision, as request ids in decision order:
     * admissions (including re-admissions after preemption) and
     * preemption victims. Coalescing contracts to reproduce these
     * sequences exactly, so equivalence tests and the serving-speed
     * gate compare them verbatim against the per-token reference.
     */
    std::vector<std::size_t> admissionOrder;
    std::vector<std::size_t> preemptionOrder;
    /** Requests in completion order (admission/completion cycles set). */
    std::vector<CostedRequest *> completed;

    // ---- Availability (fault injection; all zero on zero-fault runs) --
    std::size_t faultEvents = 0;    ///< Timeline events processed.
    std::size_t killedInFlight = 0; ///< In-flight kills by chip faults.
    std::size_t retriesScheduled = 0;
    std::size_t droppedRequests = 0; ///< Budget/deadline/dead-fleet drops.
    std::size_t faultLostTokens = 0; ///< Decode progress lost to kills.
    /** Restart prefills replayed after fault kills (cycles). */
    double faultRecomputeCycles = 0.0;
    /** Cycles spent with the fleet degraded / fully down. */
    double degradedCycles = 0.0;
    double outageCycles = 0.0;
    /** Retry schedulings and drops, as request ids in decision order
     *  (part of the coalescing equivalence contract, like
     *  admissionOrder/preemptionOrder). */
    std::vector<std::size_t> retryOrder;
    std::vector<std::size_t> dropOrder;
    /** Per-fault-event blast radius. */
    struct FaultImpact
    {
        std::size_t eventId = 0;
        double atCycles = 0.0;
        sim::FaultKind kind = sim::FaultKind::ChipFail;
        std::size_t chip = 0;
        bool permanent = false;
        std::size_t killed = 0;  ///< In-flight requests killed.
        std::size_t dropped = 0; ///< Requests dropped outright.
    };
    std::vector<FaultImpact> faultLog;
};

/** Recompute price of one (re)prefill over @p residentTokens tokens. */
struct PrefillPrice
{
    double cycles = 0.0;
    double joules = 0.0;
};

/**
 * Prices a prefill of @p residentTokens tokens (prompt + recomputed
 * decode progress) for @p request through the prefill path of the
 * accelerator serving @p topology. Required by the paged policy;
 * never called under Reserve, and called for kDegraded only when
 * FaultInputs::hasDegraded.
 */
using PrefillPricer = std::function<PrefillPrice(
    const CostedRequest &request, std::size_t residentTokens,
    Topology topology)>;

/** The event loop: one engine, one scheduler, one KV pool. */
class EventCore
{
  public:
    /**
     * @p repricer re-prices a paged preemption's recompute prefill on
     * every topology the run prices (required under paged KV).
     * @p faults default-constructed disables fault injection.
     */
    EventCore(const Scheduler &scheduler, std::size_t maxBatch,
              KvOptions kv, PrefillPricer repricer = nullptr,
              StepMode step = StepMode::Coalesced,
              FaultInputs faults = {});

    /** Play @p requests to completion (or to their drop). */
    EventStats run(std::vector<CostedRequest> &requests) const;

  private:
    const Scheduler *scheduler_;
    std::size_t maxBatch_;
    KvOptions kv_;
    PrefillPricer repricer_;
    StepMode step_;
    FaultInputs faults_;
};

} // namespace mcbp::engine
