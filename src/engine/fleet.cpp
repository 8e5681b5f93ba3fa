#include "engine/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "sim/fault_model.hpp"

namespace mcbp::engine {

std::string
toString(ReplicaPolicy policy)
{
    switch (policy) {
    case ReplicaPolicy::LeastLoaded:
        return "least-loaded";
    case ReplicaPolicy::RoundRobin:
        return "round-robin";
    }
    panic("unknown replica policy");
}

ReplicaPolicy
replicaPolicyFromString(const std::string &name)
{
    if (name == "least" || name == "least-loaded")
        return ReplicaPolicy::LeastLoaded;
    if (name == "rr" || name == "round-robin")
        return ReplicaPolicy::RoundRobin;
    fatal("unknown replica policy '" + name +
          "' (accepted: least, least-loaded, rr, round-robin)");
}

// ---- FleetAccelerator ------------------------------------------------------

FleetAccelerator::FleetAccelerator(std::unique_ptr<Accelerator> replica,
                                   FleetOptions opts)
    : replica_(std::move(replica)), opts_(opts)
{
    fatalIf(!replica_, "fleet needs a replica accelerator");
    fatalIf(opts_.dataParallel == 0,
            "data-parallel degree must be >= 1");
    fatalIf(dynamic_cast<const FleetAccelerator *>(replica_.get()) !=
                nullptr,
            "nested fleet composition is not modeled; use a single "
            "dp= degree");
}

std::string
FleetAccelerator::name() const
{
    if (opts_.dataParallel == 1)
        return replica_->name();
    return replica_->name() + "[dp" +
           std::to_string(opts_.dataParallel) + "]";
}

Capabilities
FleetAccelerator::capabilities() const
{
    Capabilities c = replica_->capabilities();
    c.processors *= opts_.dataParallel;
    c.hbmCapacityBytes *= static_cast<double>(opts_.dataParallel);
    // Fault domains span the whole fleet: the dp= axis multiplies the
    // shard count exactly like tp= and pp= do, so one fault timeline
    // over kvShards domains covers every replica's chips.
    c.kvShards *= opts_.dataParallel;
    c.replicas *= opts_.dataParallel;
    return c;
}

std::string
FleetAccelerator::configSummary() const
{
    if (opts_.dataParallel == 1) // identity: no fleet exists.
        return replica_->configSummary();
    std::ostringstream os;
    os << name() << ": " << opts_.dataParallel
       << "-way data-parallel replica fleet, " << toString(opts_.policy)
       << " routing (each request served by exactly one replica)\n"
       << replica_->configSummary();
    return os.str();
}

// ---- FleetRouter -----------------------------------------------------------

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

/** Arrival-order request ordering shared by routing and sub-traces. */
bool
arrivesBefore(const model::Request &a, const model::Request &b)
{
    if (a.arrivalSeconds != b.arrivalSeconds)
        return a.arrivalSeconds < b.arrivalSeconds;
    return a.id < b.id;
}

/**
 * Slice one fleet fault timeline into per-replica specs. Chip events
 * land on the owning replica (chip index rebased to the replica's
 * local domain); fleet-wide link/straggler windows reach every
 * replica (their start AND end events — only transient chip repairs
 * are re-derived from ChipFail::repairAt by the explicit-events path,
 * so those are skipped to avoid double emission).
 */
std::vector<sim::FaultSpec>
sliceFaults(const std::vector<sim::FaultEvent> &timeline,
            std::uint64_t seed, std::size_t dp,
            std::size_t perReplicaChips)
{
    std::vector<sim::FaultSpec> specs(dp);
    for (sim::FaultSpec &spec : specs)
        spec.seed = seed; // rates stay 0: the slice IS the timeline.

    std::set<std::pair<std::size_t, double>> autoRepairs;
    for (const sim::FaultEvent &e : timeline)
        if (e.kind == sim::FaultKind::ChipFail && !e.permanent)
            autoRepairs.insert({e.chip, e.repairAt});

    for (const sim::FaultEvent &e : timeline) {
        switch (e.kind) {
        case sim::FaultKind::ChipFail: {
            sim::FaultEvent local = e;
            local.chip = e.chip % perReplicaChips;
            specs[e.chip / perReplicaChips].events.push_back(local);
            break;
        }
        case sim::FaultKind::ChipRepair: {
            // Re-derived from the transient ChipFail on the replica;
            // forward only hand-authored orphan repairs.
            if (autoRepairs.count({e.chip, e.at}))
                break;
            sim::FaultEvent local = e;
            local.chip = e.chip % perReplicaChips;
            specs[e.chip / perReplicaChips].events.push_back(local);
            break;
        }
        default:
            for (sim::FaultSpec &spec : specs)
                spec.events.push_back(e);
            break;
        }
    }
    return specs;
}

/**
 * When each replica goes irrecoverably dead, mirroring the event
 * core's semantics: a permanent chip failure kills the replica
 * outright without a degraded topology, and the SECOND permanent
 * failure kills it when one is configured (the first merely degrades).
 */
std::vector<double>
replicaDeathTimes(const std::vector<sim::FaultEvent> &timeline,
                  std::size_t dp, std::size_t perReplicaChips,
                  bool hasDegraded)
{
    std::vector<double> deadAt(dp, kNever);
    std::vector<std::size_t> permanents(dp, 0);
    for (const sim::FaultEvent &e : timeline) {
        if (e.kind != sim::FaultKind::ChipFail || !e.permanent)
            continue;
        const std::size_t r = e.chip / perReplicaChips;
        ++permanents[r];
        if (deadAt[r] == kNever &&
            (!hasDegraded || permanents[r] >= 2))
            deadAt[r] = e.at;
    }
    return deadAt;
}

} // namespace

FleetRouter::FleetRouter(const FleetAccelerator &fleet,
                         ServingOptions opts)
    : fleet_(&fleet), opts_(std::move(opts))
{
}

FleetOutcome
FleetRouter::simulate(const std::vector<model::Request> &trace) const
{
    const std::size_t dp = fleet_->options().dataParallel;
    const Accelerator &replica = fleet_->replica();

    // Per-replica serving options: the fleet-wide KV budget splits
    // evenly (replicas are symmetric), the degraded fleet unwraps to
    // its replica, and the fault spec is replaced per replica below.
    ServingOptions ropts = opts_;
    if (opts_.degradedAccel != nullptr) {
        if (const auto *degFleet = dynamic_cast<const FleetAccelerator *>(
                opts_.degradedAccel))
            ropts.degradedAccel = &degFleet->replica();
    }
    if (!kvUnbounded(opts_.kvCapacityBytes))
        ropts.kvCapacityBytes =
            opts_.kvCapacityBytes / static_cast<double>(dp);

    FleetOutcome out;
    if (dp == 1) {
        // Identity: one replica serves the whole trace — bit-identical
        // to the flat (non-fleet) path by construction.
        out.replicas.push_back(
            ServingSimulator(replica, ropts).simulate(trace));
        out.fleet = out.replicas.back();
        out.assignment.assign(trace.size(), 0);
        out.replicaRuns = 1;
        return out;
    }

    if (trace.empty()) {
        out.fleet = ServingSimulator(replica, ropts).simulate(trace);
        out.fleet.accelerator = fleet_->name();
        out.replicas.resize(dp, out.fleet);
        for (ServingReport &r : out.replicas)
            r.accelerator = replica.name();
        out.replicaRuns = 1;
        return out;
    }

    // ---- Fleet-level costing --------------------------------------------
    // One healthy costing of the full trace feeds (a) the routing
    // estimates and (b) the fleet serial baseline — each request
    // counted exactly once however often failover re-dispatches it.
    ServingOptions costOpts = ropts;
    costOpts.faults = {};
    costOpts.degradedAccel = nullptr;
    const ServingSimulator::CostedTrace costed =
        ServingSimulator(replica, costOpts).costTrace(trace);
    const double to_seconds = 1.0 / (costed.clockGhz * 1e9);

    std::vector<double> estSeconds(trace.size(), 0.0);
    std::vector<double> kvDemand(trace.size(), 0.0);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const CostedRequest &c = costed.costs[i];
        const TopologyPrice &p = c.price[kHealthy];
        const double perToken =
            p.weightCyclesPerToken + p.linearCyclesPerToken +
            p.otherCyclesPerToken + p.fixedCyclesPerToken;
        estSeconds[i] =
            (p.prefillCycles +
             static_cast<double>(c.remainingTokens) * perToken) *
            to_seconds;
        kvDemand[i] = c.kvBytes;
    }

    // ---- Fault slicing ----------------------------------------------------
    const std::size_t perReplicaChips =
        std::max<std::size_t>(1, replica.capabilities().kvShards);
    std::vector<sim::FaultEvent> timeline;
    if (opts_.faults.enabled())
        timeline =
            sim::buildFaultTimeline(opts_.faults, perReplicaChips * dp);
    std::vector<sim::FaultSpec> replicaFaults =
        sliceFaults(timeline, opts_.faults.seed, dp, perReplicaChips);
    const std::vector<double> deadAt = replicaDeathTimes(
        timeline, dp, perReplicaChips, ropts.degradedAccel != nullptr);

    // ---- Route in arrival order ------------------------------------------
    // Deterministic virtual-load balancer: outstanding KV bytes per
    // replica, retired at each request's estimated finish time.
    std::vector<std::size_t> order(trace.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return arrivesBefore(trace[a], trace[b]);
                     });

    auto aliveAt = [&](std::size_t r, double t) {
        return deadAt[r] > t;
    };
    // Route to the latest-dying replica when every replica is already
    // dead at arrival — the request drops there deterministically.
    auto lastResort = [&]() {
        std::size_t best = 0;
        for (std::size_t r = 1; r < dp; ++r)
            if (deadAt[r] > deadAt[best])
                best = r;
        return best;
    };

    std::vector<std::size_t> assign(trace.size(), 0);
    // (finish time, kv bytes) of virtually in-flight requests.
    std::vector<std::vector<std::pair<double, double>>> inflight(dp);
    std::vector<double> outstanding(dp, 0.0);
    std::size_t rrSeq = 0;
    for (const std::size_t i : order) {
        const double t = trace[i].arrivalSeconds;
        std::size_t target = dp; // sentinel: none alive yet.
        if (fleet_->options().policy == ReplicaPolicy::RoundRobin) {
            for (std::size_t k = 0; k < dp; ++k) {
                const std::size_t r = (rrSeq + k) % dp;
                if (aliveAt(r, t)) {
                    target = r;
                    break;
                }
            }
            ++rrSeq;
        } else {
            for (std::size_t r = 0; r < dp; ++r) {
                // Retire virtually finished work before comparing.
                auto &fl = inflight[r];
                for (std::size_t k = 0; k < fl.size();) {
                    if (fl[k].first <= t) {
                        outstanding[r] -= fl[k].second;
                        fl[k] = fl.back();
                        fl.pop_back();
                    } else {
                        ++k;
                    }
                }
                if (!aliveAt(r, t))
                    continue;
                if (target == dp || outstanding[r] < outstanding[target])
                    target = r;
            }
        }
        if (target == dp)
            target = lastResort();
        assign[i] = target;
        outstanding[target] += kvDemand[i];
        inflight[target].push_back({t + estSeconds[i], kvDemand[i]});
    }

    // ---- Per-replica simulation, in death order --------------------------
    // A dying replica's drops re-dispatch at max(arrival, death) +
    // backoff onto a replica alive then, which dies strictly later or
    // never. So running the dying replicas one at a time in death
    // order (ties by index) completes each sub-trace before its
    // replica runs: every replica simulates exactly once, and a
    // request hops at most once per replica (dp - 1 reroutes).
    std::vector<std::vector<model::Request>> sub(dp);
    for (const std::size_t i : order)
        sub[assign[i]].push_back(trace[i]);

    std::map<std::size_t, std::size_t> indexById;
    for (std::size_t i = 0; i < trace.size(); ++i)
        indexById[trace[i].id] = i;

    std::vector<ServingReport> reports(dp);
    std::atomic<std::size_t> runs{0};
    auto runReplica = [&](std::size_t r) {
        std::stable_sort(sub[r].begin(), sub[r].end(), arrivesBefore);
        ServingOptions o = ropts;
        o.faults = replicaFaults[r];
        reports[r] = ServingSimulator(replica, o).simulate(sub[r]);
        ++runs;
    };

    std::vector<std::size_t> dying, survivors;
    for (std::size_t r = 0; r < dp; ++r)
        (deadAt[r] == kNever ? survivors : dying).push_back(r);
    std::stable_sort(dying.begin(), dying.end(),
                     [&](std::size_t a, std::size_t b) {
                         return deadAt[a] < deadAt[b];
                     });

    std::vector<std::size_t> rerouteCount(trace.size(), 0);
    std::vector<std::size_t> rerouteOrder;
    for (const std::size_t r : dying) {
        runReplica(r);
        for (const std::size_t id : reports[r].dropOrder) {
            const std::size_t idx = indexById.at(id);
            const double t0 = trace[idx].arrivalSeconds;
            const double tNew = std::max(t0, deadAt[r]) +
                                opts_.retry.backoffBaseSeconds;
            // A reroute is a fleet-level retry, bounded by the
            // request's deadline.
            if (opts_.retry.deadlineSeconds > 0.0 &&
                tNew > t0 + opts_.retry.deadlineSeconds)
                continue;
            std::size_t target = dp;
            for (std::size_t k = 1; k < dp; ++k) {
                const std::size_t cand = (r + k) % dp;
                if (aliveAt(cand, tNew)) {
                    target = cand;
                    break;
                }
            }
            if (target == dp)
                continue; // nowhere left to go.
            model::Request moved = trace[idx];
            moved.arrivalSeconds = tNew;
            sub[target].push_back(moved);
            assign[idx] = target;
            ++rerouteCount[idx];
            ++out.reroutes;
            rerouteOrder.push_back(id);
        }
    }
    // Replicas that never die receive reroutes but emit none.
    parallel::parallelFor(survivors.size(), [&](std::size_t k) {
        runReplica(survivors[k]);
    });
    out.replicaRuns = runs.load();

    // ---- Merge ------------------------------------------------------------
    ServingReport merged;
    merged.accelerator = fleet_->name();
    merged.scheduler = reports[0].scheduler;
    merged.kvPolicy = reports[0].kvPolicy;
    merged.serialSeconds = costed.serialSeconds;
    merged.serialJoules = costed.serialJoules;

    double occupancyWeighted = 0.0;
    double blockUtilWeighted = 0.0;
    for (std::size_t r = 0; r < dp; ++r) {
        const ServingReport &rep = reports[r];
        merged.makespanSeconds =
            std::max(merged.makespanSeconds, rep.makespanSeconds);
        merged.busySeconds += rep.busySeconds;
        merged.peakBatch = std::max(merged.peakBatch, rep.peakBatch);
        merged.kvPeakBytes =
            std::max(merged.kvPeakBytes, rep.kvPeakBytes);
        merged.preemptions += rep.preemptions;
        merged.recomputedTokens += rep.recomputedTokens;
        merged.kvFragmentationPeakBytes =
            std::max(merged.kvFragmentationPeakBytes,
                     rep.kvFragmentationPeakBytes);
        merged.decodeIterations += rep.decodeIterations;
        merged.decodeWindows += rep.decodeWindows;
        merged.admissionCandidates += rep.admissionCandidates;
        occupancyWeighted += rep.meanBatchOccupancy *
                             static_cast<double>(rep.decodeIterations);
        blockUtilWeighted += rep.kvBlockUtilization *
                             static_cast<double>(rep.decodeIterations);

        merged.faultEvents += rep.faultEvents;
        merged.killedInFlight += rep.killedInFlight;
        merged.retriesScheduled += rep.retriesScheduled;
        merged.faultLostTokens += rep.faultLostTokens;
        merged.faultRecomputeSeconds += rep.faultRecomputeSeconds;
        merged.degradedSeconds += rep.degradedSeconds;
        merged.outageSeconds += rep.outageSeconds;

        // Decision logs concatenate in replica order: each replica's
        // per-token and coalesced runs produce identical sequences, so
        // the concatenation preserves the step-mode identity contract.
        merged.admissionOrder.insert(merged.admissionOrder.end(),
                                     rep.admissionOrder.begin(),
                                     rep.admissionOrder.end());
        merged.preemptionOrder.insert(merged.preemptionOrder.end(),
                                      rep.preemptionOrder.begin(),
                                      rep.preemptionOrder.end());
        merged.retryOrder.insert(merged.retryOrder.end(),
                                 rep.retryOrder.begin(),
                                 rep.retryOrder.end());

        for (const RequestMetrics &rm : rep.requests) {
            RequestMetrics fixed = rm;
            const std::size_t idx = indexById.at(rm.id);
            if (rerouteCount[idx] > 0) {
                // A rerouted request's latency runs from its ORIGINAL
                // arrival; the replica only saw the re-dispatch time.
                fixed.arrivalSeconds = trace[idx].arrivalSeconds;
                fixed.retries += rerouteCount[idx];
                if (opts_.retry.deadlineSeconds > 0.0)
                    fixed.sloMiss =
                        fixed.completionSeconds >
                        fixed.arrivalSeconds +
                            opts_.retry.deadlineSeconds;
            }
            merged.requests.push_back(fixed);
        }

        // Chip events are replica-local (remapped to fleet domains);
        // fleet-wide link/straggler windows were fanned out to every
        // replica, so keep replica 0's copy only.
        for (const ServingReport::FaultImpact &f : rep.faultLog) {
            const bool chipEvent =
                f.kind == "chip-fail" || f.kind == "chip-repair";
            if (!chipEvent && r != 0)
                continue;
            ServingReport::FaultImpact g = f;
            if (chipEvent)
                g.chip = r * perReplicaChips + f.chip;
            merged.faultLog.push_back(g);
        }
    }

    // Fleet-level reroutes are retries too, logged after the
    // per-replica decision streams in death order of the replica they
    // left (within one replica, in its drop order).
    merged.retriesScheduled += out.reroutes;
    merged.retryOrder.insert(merged.retryOrder.end(),
                             rerouteOrder.begin(), rerouteOrder.end());

    std::stable_sort(merged.requests.begin(), merged.requests.end(),
                     [](const RequestMetrics &a,
                        const RequestMetrics &b) {
                         if (a.completionSeconds != b.completionSeconds)
                             return a.completionSeconds <
                                    b.completionSeconds;
                         return a.id < b.id;
                     });
    std::stable_sort(merged.faultLog.begin(), merged.faultLog.end(),
                     [](const ServingReport::FaultImpact &a,
                        const ServingReport::FaultImpact &b) {
                         if (a.seconds != b.seconds)
                             return a.seconds < b.seconds;
                         return a.chip < b.chip;
                     });
    for (std::size_t k = 0; k < merged.faultLog.size(); ++k)
        merged.faultLog[k].eventId = k;

    // Final drops: a request that completed anywhere is not dropped,
    // however many dead replicas logged it on the way.
    std::set<std::size_t> completedIds;
    for (const RequestMetrics &rm : merged.requests)
        completedIds.insert(rm.id);
    std::set<std::size_t> droppedSeen;
    for (std::size_t r = 0; r < dp; ++r)
        for (const std::size_t id : reports[r].dropOrder)
            if (completedIds.count(id) == 0 &&
                droppedSeen.insert(id).second)
                merged.dropOrder.push_back(id);
    merged.droppedRequests = trace.size() - completedIds.size();

    merged.kvUtilization =
        !kvUnbounded(ropts.kvCapacityBytes)
            ? merged.kvPeakBytes / ropts.kvCapacityBytes
            : 0.0;
    merged.degradedFraction =
        merged.makespanSeconds > 0.0
            ? merged.degradedSeconds / merged.makespanSeconds
            : 0.0;

    finalizeServingAggregates(merged, trace.size());
    if (!merged.noCompletions) {
        merged.meanBatchOccupancy =
            merged.decodeIterations > 0
                ? occupancyWeighted /
                      static_cast<double>(merged.decodeIterations)
                : 0.0;
        merged.kvBlockUtilization =
            merged.decodeIterations > 0
                ? blockUtilWeighted /
                      static_cast<double>(merged.decodeIterations)
                : 0.0;
    }

    out.fleet = std::move(merged);
    out.replicas = std::move(reports);
    out.assignment = std::move(assign);
    return out;
}

} // namespace mcbp::engine
