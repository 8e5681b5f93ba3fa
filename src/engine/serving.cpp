#include "engine/serving.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "engine/event_core.hpp"
#include "engine/fleet.hpp"

namespace mcbp::engine {

namespace {

/** Decode-energy fraction attributable to the weight stream (HBM
 *  weight traffic + BSTC/Huffman decode), which a batch shares. */
double
weightEnergyFraction(const accel::PhaseMetrics &decode)
{
    const double total = decode.energy.totalPj();
    if (total <= 0.0)
        return 0.0;
    const double traffic = decode.traffic.total();
    const double dram_weight =
        traffic > 0.0
            ? decode.energy.dramPj * decode.traffic.weightBytes / traffic
            : 0.0;
    const double frac =
        (decode.energy.codecPj + dram_weight) / total;
    return std::clamp(frac, 0.0, 1.0);
}

/** Prefill energy of a batch-1 run, in joules over all its processors. */
double
prefillJoules(const accel::RunCost &rm)
{
    return rm.prefill.energy.totalPj() * 1e-12 *
           static_cast<double>(rm.processors);
}

/**
 * The price of a request on one topology from its batch-1 run @p rm
 * on that topology's accelerator (@p stages pipeline stages). The raw
 * decode streams let the event core re-compose the linear segment at
 * the batch's size, inverting the model's own composition rule; the
 * remainder (attention, SFU) is per-request work. The prefill energy
 * is left pending: admission charges it in the mode it runs in.
 */
TopologyPrice
topologyPrice(const accel::RunCost &rm, std::size_t decodeLen,
              std::size_t stages)
{
    TopologyPrice p;
    p.stages = stages;
    p.prefillCycles = rm.prefill.cycles;
    p.basePrefillCycles = rm.prefill.cycles;
    p.basePrefillJoules = prefillJoules(rm);
    p.pendingPrefillJoules = p.basePrefillJoules;
    if (decodeLen == 0)
        return p;
    const double steps = static_cast<double>(decodeLen);
    p.memorySerialized = rm.decode.memorySerialized;
    p.weightCyclesPerToken = rm.decode.weightStreamCycles / steps;
    p.linearCyclesPerToken = rm.decode.linearWorkCycles / steps;
    const double linear_segment = accel::composedLinearCycles(
        rm.decode.weightStreamCycles, rm.decode.linearWorkCycles,
        p.memorySerialized);
    p.fixedCyclesPerToken = rm.decode.fixedStepCycles / steps;
    p.otherCyclesPerToken =
        std::max(0.0, rm.decode.cycles - linear_segment -
                          rm.decode.fixedStepCycles) /
        steps;
    const double decode_joules = rm.decode.energy.totalPj() * 1e-12 *
                                 static_cast<double>(rm.processors);
    const double wf = weightEnergyFraction(rm.decode);
    p.weightJoulesPerToken = decode_joules * wf / steps;
    p.otherJoulesPerToken = decode_joules * (1.0 - wf) / steps;
    return p;
}

} // namespace

ServingSimulator::ServingSimulator(const Accelerator &accel,
                                   ServingOptions opts)
    : accel_(&accel), opts_(opts), planCache_(accel::makePlanCache())
{
    // Option bounds are enforced by EventCore, which owns them. The
    // degraded topology is only priced when faults can actually put
    // the fleet on it.
    topologies_ =
        opts_.faults.enabled() && opts_.degradedAccel != nullptr
            ? kTopologies
            : 1;
    for (std::size_t t = 0; t < topologies_; ++t) {
        const Accelerator &a = accelOn(static_cast<Topology>(t));
        identity_[t] = planCache_->intern(a.name(), a.configSummary());
    }
}

const Accelerator &
ServingSimulator::accelOn(Topology topology) const
{
    return topology == kHealthy ? *accel_ : *opts_.degradedAccel;
}

const accel::RunMetrics &
ServingSimulator::runOn(Topology topology, const model::LlmConfig &m,
                        const model::Workload &w) const
{
    return planCache_->metrics(identity_[topology], m, w, [&] {
        return accelOn(topology).run(m, w);
    });
}

KvOptions
ServingSimulator::kvOptions() const
{
    KvOptions kv;
    kv.policy = opts_.kvPolicy;
    kv.capacityBytes = opts_.kvCapacityBytes;
    kv.blockTokens = opts_.kvBlockTokens;
    kv.lowWatermark = opts_.kvLowWatermark;
    return kv;
}

ServingSimulator::CostedTrace
ServingSimulator::costTrace(const std::vector<model::Request> &trace) const
{
    CostedTrace out;
    if (trace.empty())
        return out;

    // ---- Prepare one cost per group of requests ------------------------
    // Everything a request's price depends on besides its two lengths
    // is fixed by its model, task and context bucket (the profiles a
    // run reads; see accel::contextBucket), so requests sharing those
    // form one group with one prepared cost per topology, and a trace
    // with jittered lengths prepares a handful. Groups are numbered in
    // first-occurrence order.
    struct Group
    {
        const model::LlmConfig *model = nullptr;
        model::Workload task; ///< The first request's workload.
        std::size_t bucket = 0;
        std::array<std::unique_ptr<const PreparedCost>, kTopologies> cost;
    };
    std::vector<Group> groups;
    std::vector<std::uint32_t> groupOf(trace.size());
    std::size_t last = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const model::Request &req = trace[i];
        const std::size_t bucket = accel::contextBucket(req.promptLen);
        const auto matches = [&](const Group &g) {
            return g.bucket == bucket && g.model->name == req.model &&
                   g.task.name == req.task;
        };
        if (groups.empty() || !matches(groups[last])) {
            last = 0;
            while (last < groups.size() && !matches(groups[last]))
                ++last;
            if (last == groups.size())
                groups.push_back(
                    {&model::findModel(req.model), req.workload(), bucket,
                     {}});
        }
        groupOf[i] = static_cast<std::uint32_t>(last);
    }

    // Warm each topology's profile cache with the groups' profiles on
    // all cores (racing engines singleflight), then prepare: preparing
    // resolves profiles, which are all hits by now.
    std::array<std::size_t, kTopologies> stages{};
    for (std::size_t t = 0; t < topologies_; ++t) {
        const Accelerator &a = accelOn(static_cast<Topology>(t));
        if (const std::shared_ptr<accel::ProfileCache> cache =
                a.profileCache()) {
            std::vector<accel::ProfileRequest> requests;
            for (const Group &group : groups)
                a.profileRequests(*group.model, group.task, requests);
            cache->warm(requests, opts_.profileThreads);
        }
        for (Group &group : groups)
            group.cost[t] = a.prepare(*group.model, group.task);
        // Pipeline stage count for the decode iteration's stage-aware
        // overlap (one accelerator serves the whole trace).
        stages[t] =
            std::max<std::size_t>(1, a.capabilities().pipelineStages);
    }
    const KvOptions kv = kvOptions();

    // ---- Price each request with a batch-1 run --------------------------
    // The fan-out prices each request independently and writes it in
    // place; the serial sums and clock checks below then run in index
    // order, so every sum accumulates exactly as a serial loop would:
    // the costed trace is bit-identical at every thread count.
    struct Serial
    {
        double seconds = 0.0;
        double joules = 0.0;
        double clockGhz = 0.0;
    };
    std::vector<Serial> serial(trace.size());
    out.costs.resize(trace.size());
    parallel::parallelFor(
        trace.size(),
        [&](std::size_t i) {
            const model::Request &req = trace[i];
            const Group &group = groups[groupOf[i]];
            const accel::RunCost rc =
                group.cost[kHealthy]->price(req.promptLen, req.decodeLen);
            serial[i] = {rc.seconds(), rc.joules(), rc.clockGhz};

            CostedRequest &c = out.costs[i];
            c.req = &req;
            c.model = group.model;
            c.recomputeShape =
                model::withLengths(group.task, req.promptLen, 0);
            c.arrivalCycles = req.arrivalSeconds * rc.clockGhz * 1e9;
            c.price[kHealthy] =
                topologyPrice(rc, req.decodeLen, stages[kHealthy]);
            if (topologies_ > 1) {
                // The degraded twin is priced and split the same way,
                // so degraded decode windows compose like healthy ones.
                const accel::RunCost rcd = group.cost[kDegraded]->price(
                    req.promptLen, req.decodeLen);
                fatalIf(rcd.clockGhz != rc.clockGhz,
                        "degraded accelerator must run at the primary "
                        "accelerator's clock (cycle timelines merge)");
                c.price[kDegraded] =
                    topologyPrice(rcd, req.decodeLen, stages[kDegraded]);
            }
            // Largest-residency footprint, quantized by the KV policy:
            // exact (prompt + decode) bytes under reserve, whole blocks
            // under paged, 0 when no token is ever generated.
            c.kvBytesPerToken =
                static_cast<double>(group.model->kvBytesPerToken());
            c.promptTokens = req.promptLen;
            c.kvBytes = kvFootprintBytes(kv, c.kvBytesPerToken,
                                         req.promptLen, req.decodeLen);
            c.remainingTokens = req.decodeLen;
        },
        opts_.costingThreads);

    for (const Serial &line : serial) {
        fatalIf(out.clockGhz != 0.0 && line.clockGhz != out.clockGhz,
                "accelerator changed clock between requests");
        out.clockGhz = line.clockGhz;
        out.serialSeconds += line.seconds;
        out.serialJoules += line.joules;
    }
    return out;
}

ServingReport
ServingSimulator::simulate(const std::vector<model::Request> &trace) const
{
    // A data-parallel fleet serves through the replica router: each
    // request runs on exactly one replica's event core and the
    // per-replica reports merge into one fleet report (engine/fleet).
    // dp=1 delegates wholesale to a single-replica simulator, so a
    // dp=1 fleet report is bit-identical to the flat path.
    if (const auto *fleet = dynamic_cast<const FleetAccelerator *>(accel_))
        return FleetRouter(*fleet, opts_).simulate(trace).fleet;

    ServingReport report;
    report.accelerator = accel_->name();
    report.kvPolicy = toString(opts_.kvPolicy);

    const std::unique_ptr<Scheduler> scheduler =
        makeScheduler(opts_.policy, opts_.sjfAgingWeight);
    report.scheduler = scheduler->name();

    // An empty (or fully filtered) trace is a well-defined zeroed
    // report, not an error: no request metrics, no percentiles to
    // index into, every aggregate 0.
    if (trace.empty())
        return report;

    CostedTrace costed = costTrace(trace);
    report.serialSeconds = costed.serialSeconds;
    report.serialJoules = costed.serialJoules;

    // ---- Fault inputs, rescaled to cycles -------------------------------
    // The timeline is sampled in seconds (the trace's unit) over the
    // fleet's fault domains (one per KV shard) and converted once now
    // that costing pinned the clock. Stream separation (kFaultStream)
    // keeps it independent of trace synthesis at equal seeds.
    FaultInputs faults;
    if (opts_.faults.enabled()) {
        const double to_cycles = costed.clockGhz * 1e9;
        const std::size_t chips =
            std::max<std::size_t>(1, accel_->capabilities().kvShards);
        faults.enabled = true;
        faults.timeline = sim::buildFaultTimeline(opts_.faults, chips);
        for (sim::FaultEvent &e : faults.timeline) {
            e.at *= to_cycles;
            e.repairAt *= to_cycles;
        }
        faults.maxRetries = opts_.retry.maxRetries;
        faults.backoffBaseCycles =
            opts_.retry.backoffBaseSeconds * to_cycles;
        faults.backoffCapCycles =
            opts_.retry.backoffCapSeconds * to_cycles;
        faults.deadlineCycles = opts_.retry.deadlineSeconds * to_cycles;
        faults.hasDegraded = opts_.degradedAccel != nullptr;
    }

    // ---- Discrete-event loop under the selected policies ----------------
    // The paged policy re-prices a preempted request's recompute —
    // its prompt plus every generated token, replayed as one prefill
    // — through the prefill path of each topology's accelerator, so
    // recompute cycles and energy follow the same model as first
    // admission. The model and the prefill-only shape were resolved at
    // costing, and the price goes through the plan cache: preemptions
    // at the same resident length (recompute prices repeat heavily)
    // compute once.
    PrefillPricer repricer;
    if (opts_.kvPolicy == KvPolicy::Paged)
        repricer = [this](const CostedRequest &c, std::size_t tokens,
                          Topology topology) {
            model::Workload w = c.recomputeShape;
            w.promptLen = tokens;
            const accel::RunMetrics &rm = runOn(topology, *c.model, w);
            PrefillPrice price;
            price.cycles = rm.prefill.cycles;
            price.joules = prefillJoules(rm);
            return price;
        };
    const EventCore core(*scheduler, opts_.maxBatch, kvOptions(),
                         std::move(repricer), opts_.stepMode,
                         std::move(faults));
    EventStats stats = core.run(costed.costs);

    // ---- Aggregate ------------------------------------------------------
    const double to_seconds = 1.0 / (costed.clockGhz * 1e9);
    report.requests.reserve(stats.completed.size());
    for (const CostedRequest *c : stats.completed) {
        RequestMetrics rmx;
        rmx.id = c->req->id;
        rmx.arrivalSeconds = c->req->arrivalSeconds;
        rmx.admissionSeconds = c->admissionCycles * to_seconds;
        rmx.firstTokenSeconds =
            (c->firstTokenSeen ? c->firstTokenCycles
                               : c->completionCycles) *
            to_seconds;
        rmx.completionSeconds = c->completionCycles * to_seconds;
        rmx.decodeTokens = c->req->decodeLen;
        rmx.kvBytes = c->kvBytes;
        rmx.preemptions = c->preemptions;
        rmx.recomputedTokens = c->recomputedTokens;
        rmx.retries = c->retries;
        rmx.sloMiss = c->deadlineCycles > 0.0 &&
                      c->completionCycles > c->deadlineCycles;
        rmx.joules = c->joules;
        report.requests.push_back(rmx);
    }

    report.makespanSeconds = stats.clockCycles * to_seconds;
    report.busySeconds = stats.busyCycles * to_seconds;
    report.peakBatch = stats.peakBatch;
    report.kvPeakBytes = stats.kvPeakBytes;
    report.kvUtilization = !kvUnbounded(opts_.kvCapacityBytes)
                               ? stats.kvPeakBytes / opts_.kvCapacityBytes
                               : 0.0;
    report.preemptions = stats.preemptions;
    report.recomputedTokens = stats.recomputedTokens;
    report.kvBlockUtilization =
        stats.kvBlockUtilizationIters > 0
            ? stats.kvBlockUtilizationSum /
                  static_cast<double>(stats.kvBlockUtilizationIters)
            : 0.0;
    report.kvFragmentationPeakBytes = stats.kvFragmentationPeakBytes;
    report.decodeIterations = stats.iterations;
    report.decodeWindows = stats.decodeWindows;
    report.admissionCandidates = stats.admissionCandidates;
    report.admissionOrder = std::move(stats.admissionOrder);
    report.preemptionOrder = std::move(stats.preemptionOrder);

    // ---- Availability -----------------------------------------------
    report.faultEvents = stats.faultEvents;
    report.killedInFlight = stats.killedInFlight;
    report.retriesScheduled = stats.retriesScheduled;
    report.droppedRequests = stats.droppedRequests;
    report.faultLostTokens = stats.faultLostTokens;
    report.faultRecomputeSeconds =
        stats.faultRecomputeCycles * to_seconds;
    report.degradedSeconds = stats.degradedCycles * to_seconds;
    report.outageSeconds = stats.outageCycles * to_seconds;
    report.degradedFraction =
        report.makespanSeconds > 0.0
            ? report.degradedSeconds / report.makespanSeconds
            : 0.0;
    report.retryOrder = std::move(stats.retryOrder);
    report.dropOrder = std::move(stats.dropOrder);
    report.faultLog.reserve(stats.faultLog.size());
    for (const EventStats::FaultImpact &f : stats.faultLog) {
        ServingReport::FaultImpact fi;
        fi.eventId = f.eventId;
        fi.seconds = f.atCycles * to_seconds;
        fi.kind = sim::toString(f.kind);
        fi.chip = f.chip;
        fi.permanent = f.permanent;
        fi.killed = f.killed;
        fi.dropped = f.dropped;
        report.faultLog.push_back(fi);
    }

    finalizeServingAggregates(report, trace.size());
    if (report.noCompletions)
        return report;
    report.meanBatchOccupancy =
        stats.iterations > 0
            ? stats.occupancySum / static_cast<double>(stats.iterations)
            : 0.0;
    return report;
}

void
finalizeServingAggregates(ServingReport &report, std::size_t traceSize)
{
    // Percentiles are only defined over completed requests; an empty
    // completion set (everything rejected or dropped) keeps the
    // zeroed report fields instead of indexing into empty sample
    // vectors, and is tagged so callers can tell "all dropped" from
    // an empty trace.
    if (report.requests.empty()) {
        report.noCompletions = true;
        return;
    }

    std::vector<double> latencies;
    std::vector<double> queue_waits;
    std::vector<double> first_tokens;
    latencies.reserve(report.requests.size());
    queue_waits.reserve(report.requests.size());
    first_tokens.reserve(report.requests.size());
    double total_tokens = 0.0;
    double total_joules = 0.0;
    double good_tokens = 0.0; // Tokens of SLO-compliant completions.
    std::size_t compliant = 0;
    double tpot_sum = 0.0;
    std::size_t tpot_requests = 0;
    for (const RequestMetrics &r : report.requests) {
        latencies.push_back(r.latencySeconds());
        queue_waits.push_back(r.queueSeconds());
        first_tokens.push_back(r.firstTokenSeconds - r.arrivalSeconds);
        total_tokens += static_cast<double>(r.decodeTokens);
        total_joules += r.joules;
        if (!r.sloMiss) {
            good_tokens += static_cast<double>(r.decodeTokens);
            ++compliant;
        }
        // TPOT is the steady decode cadence, defined once a request
        // has an inter-token gap to measure.
        if (r.decodeTokens > 1) {
            tpot_sum += (r.completionSeconds - r.firstTokenSeconds) /
                        static_cast<double>(r.decodeTokens - 1);
            ++tpot_requests;
        }
    }
    report.meanLatencySeconds =
        std::accumulate(latencies.begin(), latencies.end(), 0.0) /
        static_cast<double>(latencies.size());
    // Selection, not a sort: each sample set yields its three
    // quantiles bit-identically to sorting it.
    const std::vector<double> quantiles = {0.50, 0.90, 0.99};
    const std::vector<double> latency =
        percentilesBySelection(latencies, quantiles);
    report.p50LatencySeconds = latency[0];
    report.p90LatencySeconds = latency[1];
    report.p99LatencySeconds = latency[2];
    const std::vector<double> queue =
        percentilesBySelection(queue_waits, quantiles);
    report.p50QueueSeconds = queue[0];
    report.p90QueueSeconds = queue[1];
    report.p99QueueSeconds = queue[2];
    const std::vector<double> first_token =
        percentilesBySelection(first_tokens, quantiles);
    report.p50FirstTokenSeconds = first_token[0];
    report.p90FirstTokenSeconds = first_token[1];
    report.p99FirstTokenSeconds = first_token[2];
    report.meanTpotSeconds =
        tpot_requests > 0
            ? tpot_sum / static_cast<double>(tpot_requests)
            : 0.0;
    report.tokensPerSecond = report.makespanSeconds > 0.0
                                 ? total_tokens / report.makespanSeconds
                                 : 0.0;
    // Goodput accumulates in the same order as total_tokens, so with
    // no SLO misses it is bit-equal to tokensPerSecond.
    report.goodputTokensPerSecond =
        report.makespanSeconds > 0.0
            ? good_tokens / report.makespanSeconds
            : 0.0;
    report.sloAttainment = static_cast<double>(compliant) /
                           static_cast<double>(traceSize);
    report.joulesPerToken =
        total_tokens > 0.0 ? total_joules / total_tokens : 0.0;
}

} // namespace mcbp::engine
