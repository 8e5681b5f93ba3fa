/**
 * @file
 * Replica-fleet (dp=) serving invariants (engine/fleet):
 *  - dp=1 is bit-identical to the flat serving path, down to every
 *    field of the ServingReport (the identity the router guarantees
 *    by wholesale delegation);
 *  - every routing policy conserves requests across replicas (each
 *    trace id served exactly once, no drops on healthy runs);
 *  - a permanently failed replica drains onto the survivors through
 *    the retry/backoff path (reroutes happen, goodput never beats the
 *    healthy run, conservation still holds);
 *  - two staggered replica deaths (dp=3/4, both routing policies,
 *    paged KV) simulate each replica exactly once, reroute only onto
 *    replicas alive at the re-dispatch time, log the fleet reroutes
 *    in death order, and settle every id exactly once;
 *  - the coalesced-vs-per-token step-mode identity contract survives
 *    the fleet under injected faults (decision orders verbatim,
 *    aggregates to 1e-9 relative);
 *  - the pod spec grammar (`mcbp-s:dp=4,pp=4,tp=8`) parses, plans and
 *    serves end-to-end, and malformed fleet specs are rejected with
 *    the aggregated unknown-key message.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "engine/fleet.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"
#include "model/request.hpp"

namespace mcbp::engine {
namespace {

std::vector<model::Request>
fleetTrace(std::size_t n = 24, double rate = 100.0,
           std::uint64_t seed = 13)
{
    model::TraceConfig tc;
    tc.model = "OPT1B3";
    tc.task = "MBPP";
    tc.requests = n;
    tc.arrivalsPerSecond = rate;
    tc.seed = seed;
    return model::synthesizeTrace(tc);
}

sim::FaultEvent
permanentFail(double at, std::size_t chip)
{
    sim::FaultEvent e;
    e.at = at;
    e.kind = sim::FaultKind::ChipFail;
    e.chip = chip;
    e.permanent = true;
    return e;
}

/** Field-by-field bit equality of two serving reports. */
void
expectReportsIdentical(const ServingReport &a, const ServingReport &b)
{
    EXPECT_EQ(a.accelerator, b.accelerator);
    EXPECT_EQ(a.scheduler, b.scheduler);
    EXPECT_EQ(a.kvPolicy, b.kvPolicy);
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.busySeconds, b.busySeconds);
    EXPECT_EQ(a.serialSeconds, b.serialSeconds);
    EXPECT_EQ(a.serialJoules, b.serialJoules);
    EXPECT_EQ(a.meanLatencySeconds, b.meanLatencySeconds);
    EXPECT_EQ(a.p50LatencySeconds, b.p50LatencySeconds);
    EXPECT_EQ(a.p90LatencySeconds, b.p90LatencySeconds);
    EXPECT_EQ(a.p99LatencySeconds, b.p99LatencySeconds);
    EXPECT_EQ(a.p50QueueSeconds, b.p50QueueSeconds);
    EXPECT_EQ(a.p90QueueSeconds, b.p90QueueSeconds);
    EXPECT_EQ(a.p99QueueSeconds, b.p99QueueSeconds);
    EXPECT_EQ(a.p50FirstTokenSeconds, b.p50FirstTokenSeconds);
    EXPECT_EQ(a.p90FirstTokenSeconds, b.p90FirstTokenSeconds);
    EXPECT_EQ(a.p99FirstTokenSeconds, b.p99FirstTokenSeconds);
    EXPECT_EQ(a.meanTpotSeconds, b.meanTpotSeconds);
    EXPECT_EQ(a.tokensPerSecond, b.tokensPerSecond);
    EXPECT_EQ(a.joulesPerToken, b.joulesPerToken);
    EXPECT_EQ(a.meanBatchOccupancy, b.meanBatchOccupancy);
    EXPECT_EQ(a.peakBatch, b.peakBatch);
    EXPECT_EQ(a.kvPeakBytes, b.kvPeakBytes);
    EXPECT_EQ(a.kvUtilization, b.kvUtilization);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.recomputedTokens, b.recomputedTokens);
    EXPECT_EQ(a.kvBlockUtilization, b.kvBlockUtilization);
    EXPECT_EQ(a.kvFragmentationPeakBytes, b.kvFragmentationPeakBytes);
    EXPECT_EQ(a.decodeIterations, b.decodeIterations);
    EXPECT_EQ(a.decodeWindows, b.decodeWindows);
    EXPECT_EQ(a.admissionOrder, b.admissionOrder);
    EXPECT_EQ(a.preemptionOrder, b.preemptionOrder);
    EXPECT_EQ(a.noCompletions, b.noCompletions);
    EXPECT_EQ(a.faultEvents, b.faultEvents);
    EXPECT_EQ(a.killedInFlight, b.killedInFlight);
    EXPECT_EQ(a.retriesScheduled, b.retriesScheduled);
    EXPECT_EQ(a.droppedRequests, b.droppedRequests);
    EXPECT_EQ(a.goodputTokensPerSecond, b.goodputTokensPerSecond);
    EXPECT_EQ(a.sloAttainment, b.sloAttainment);
    EXPECT_EQ(a.retryOrder, b.retryOrder);
    EXPECT_EQ(a.dropOrder, b.dropOrder);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].id, b.requests[i].id);
        EXPECT_EQ(a.requests[i].arrivalSeconds,
                  b.requests[i].arrivalSeconds);
        EXPECT_EQ(a.requests[i].admissionSeconds,
                  b.requests[i].admissionSeconds);
        EXPECT_EQ(a.requests[i].firstTokenSeconds,
                  b.requests[i].firstTokenSeconds);
        EXPECT_EQ(a.requests[i].completionSeconds,
                  b.requests[i].completionSeconds);
        EXPECT_EQ(a.requests[i].decodeTokens, b.requests[i].decodeTokens);
        EXPECT_EQ(a.requests[i].kvBytes, b.requests[i].kvBytes);
        EXPECT_EQ(a.requests[i].retries, b.requests[i].retries);
        EXPECT_EQ(a.requests[i].sloMiss, b.requests[i].sloMiss);
        EXPECT_EQ(a.requests[i].joules, b.requests[i].joules);
    }
}

/** Every trace id appears exactly once among the completed requests. */
void
expectConservation(const ServingReport &report,
                   const std::vector<model::Request> &trace)
{
    EXPECT_EQ(report.droppedRequests, 0u);
    ASSERT_EQ(report.requests.size(), trace.size());
    std::map<std::size_t, std::size_t> seen;
    for (const RequestMetrics &r : report.requests)
        ++seen[r.id];
    for (const model::Request &r : trace) {
        EXPECT_EQ(seen[r.id], 1u) << "request " << r.id;
    }
}

TEST(Fleet, Dp1ReportIsBitIdenticalToFlatPath)
{
    Registry registry;
    auto flat = registry.make("mcbp:procs=32,tp=2");
    auto dp1 = registry.make("mcbp:procs=32,tp=2,dp=1");
    EXPECT_EQ(dp1->name(), flat->name());
    EXPECT_EQ(dp1->configSummary(), flat->configSummary());
    EXPECT_EQ(dp1->capabilities().replicas, 1u);
    EXPECT_EQ(dp1->capabilities().processors,
              flat->capabilities().processors);

    const auto trace = fleetTrace();
    ServingOptions opts;
    opts.maxBatch = 8;
    expectReportsIdentical(ServingSimulator(*dp1, opts).simulate(trace),
                           ServingSimulator(*flat, opts).simulate(trace));
}

TEST(Fleet, CapabilitiesAndNameScaleWithDp)
{
    Registry registry;
    auto flat = registry.make("mcbp:procs=2,tp=2");
    auto fleet = registry.make("mcbp:procs=2,tp=2,dp=4");
    EXPECT_EQ(fleet->capabilities().replicas, 4u);
    EXPECT_EQ(fleet->capabilities().processors,
              4u * flat->capabilities().processors);
    EXPECT_EQ(fleet->capabilities().kvShards,
              4u * flat->capabilities().kvShards);
    EXPECT_DOUBLE_EQ(fleet->capabilities().hbmCapacityBytes,
                     4.0 * flat->capabilities().hbmCapacityBytes);
    EXPECT_NE(fleet->name().find("[dp4]"), std::string::npos);
    // One request runs on exactly one replica: the plan is the
    // replica's plan (capacity multiplies, speed does not).
    const model::LlmConfig &m = model::findModel("OPT1B3");
    const model::Workload &t = model::findTask("MBPP");
    EXPECT_EQ(fleet->plan(m, t).decode.cycles,
              flat->plan(m, t).decode.cycles);
}

TEST(Fleet, RoutingConservesRequestsAcrossReplicas)
{
    Registry registry;
    const auto trace = fleetTrace(32);
    for (const char *spec :
         {"mcbp:dp=4,route=least", "mcbp:dp=4,route=rr"}) {
        auto accel = registry.make(spec);
        const auto *fleet =
            dynamic_cast<const FleetAccelerator *>(accel.get());
        ASSERT_NE(fleet, nullptr) << spec;
        ServingOptions opts;
        opts.maxBatch = 8;
        const FleetOutcome out = FleetRouter(*fleet, opts).simulate(trace);
        expectConservation(out.fleet, trace);
        EXPECT_EQ(out.reroutes, 0u) << spec; // healthy: no failover
        EXPECT_EQ(out.replicaRuns, 4u) << spec;
        ASSERT_EQ(out.replicas.size(), 4u);
        ASSERT_EQ(out.assignment.size(), trace.size());
        std::vector<std::size_t> perReplica(4, 0);
        for (std::size_t r : out.assignment) {
            ASSERT_LT(r, 4u);
            ++perReplica[r];
        }
        std::size_t replicaTotal = 0;
        for (std::size_t r = 0; r < 4; ++r) {
            EXPECT_EQ(out.replicas[r].requests.size(), perReplica[r]);
            replicaTotal += out.replicas[r].requests.size();
        }
        EXPECT_EQ(replicaTotal, trace.size());
    }
    // Round-robin keeps healthy replicas balanced to within one.
    auto accel = registry.make("mcbp:dp=4,route=round-robin");
    const auto *fleet =
        dynamic_cast<const FleetAccelerator *>(accel.get());
    ASSERT_NE(fleet, nullptr);
    const FleetOutcome out = FleetRouter(*fleet, {8}).simulate(trace);
    std::vector<std::size_t> perReplica(4, 0);
    for (std::size_t r : out.assignment)
        ++perReplica[r];
    const auto [lo, hi] =
        std::minmax_element(perReplica.begin(), perReplica.end());
    EXPECT_LE(*hi - *lo, 1u);
}

TEST(Fleet, PermanentReplicaFailureDrainsOntoSurvivors)
{
    Registry registry;
    auto accel = registry.make("mcbp:tp=2,dp=2");
    const auto *fleet =
        dynamic_cast<const FleetAccelerator *>(accel.get());
    ASSERT_NE(fleet, nullptr);
    const auto trace = fleetTrace(24);

    ServingOptions healthyOpts;
    healthyOpts.maxBatch = 8;
    const FleetOutcome healthy =
        FleetRouter(*fleet, healthyOpts).simulate(trace);
    expectConservation(healthy.fleet, trace);

    // Chips 0,1 belong to replica 0; kill chip 2 => replica 1 dies
    // early (no degraded topology configured) and its queue must
    // drain onto replica 0 through the retry/backoff path.
    ServingOptions faulty = healthyOpts;
    faulty.faults.events.push_back(permanentFail(0.02, 2));
    const FleetOutcome out = FleetRouter(*fleet, faulty).simulate(trace);

    expectConservation(out.fleet, trace);
    EXPECT_EQ(out.replicaRuns, 2u); // each replica simulated once.
    EXPECT_GT(out.reroutes, 0u);
    EXPECT_GT(out.fleet.retriesScheduled, 0u);
    EXPECT_TRUE(std::any_of(out.fleet.requests.begin(),
                            out.fleet.requests.end(),
                            [](const RequestMetrics &r) {
                                return r.retries > 0;
                            }));
    // Everything rerouted landed on the survivor.
    for (std::size_t r : out.assignment)
        EXPECT_LT(r, 2u);
    EXPECT_GE(out.fleet.makespanSeconds, healthy.fleet.makespanSeconds);
    EXPECT_LE(out.fleet.goodputTokensPerSecond,
              healthy.fleet.goodputTokensPerSecond + 1e-9);
    // The failure shows up in the merged fault log, on the fleet-wide
    // chip index.
    EXPECT_TRUE(std::any_of(out.fleet.faultLog.begin(),
                            out.fleet.faultLog.end(),
                            [](const ServingReport::FaultImpact &f) {
                                return f.kind == "chip-fail" &&
                                       f.chip == 2 && f.permanent;
                            }));
}

TEST(Fleet, StepModeIdentityHoldsUnderFaultsAtDp2Pp2Tp2)
{
    Registry registry;
    auto accel = registry.make("mcbp-s:dp=2,pp=2,tp=2");
    const auto *fleet =
        dynamic_cast<const FleetAccelerator *>(accel.get());
    ASSERT_NE(fleet, nullptr);
    EXPECT_EQ(fleet->capabilities().replicas, 2u);
    const auto trace = fleetTrace(20);

    ServingOptions opts;
    opts.maxBatch = 8;
    // Replica chips are [0..3] and [4..7]: a transient kill on
    // replica 0 plus a permanent death of replica 1.
    sim::FaultEvent transient;
    transient.at = 0.01;
    transient.kind = sim::FaultKind::ChipFail;
    transient.chip = 1;
    transient.permanent = false;
    transient.repairAt = 0.03;
    opts.faults.events.push_back(transient);
    opts.faults.events.push_back(permanentFail(0.05, 6));

    ServingOptions coalesced = opts;
    coalesced.stepMode = StepMode::Coalesced;
    ServingOptions perToken = opts;
    perToken.stepMode = StepMode::PerToken;
    const FleetOutcome a = FleetRouter(*fleet, coalesced).simulate(trace);
    const FleetOutcome b = FleetRouter(*fleet, perToken).simulate(trace);
    EXPECT_EQ(a.replicaRuns, 2u);
    EXPECT_EQ(b.replicaRuns, 2u);

    // Decision logs verbatim...
    EXPECT_EQ(a.fleet.admissionOrder, b.fleet.admissionOrder);
    EXPECT_EQ(a.fleet.preemptionOrder, b.fleet.preemptionOrder);
    EXPECT_EQ(a.fleet.retryOrder, b.fleet.retryOrder);
    EXPECT_EQ(a.fleet.dropOrder, b.fleet.dropOrder);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.reroutes, b.reroutes);
    EXPECT_EQ(a.fleet.decodeIterations, b.fleet.decodeIterations);
    // ...aggregates to 1e-9 relative.
    const auto near = [](double x, double y) {
        const double scale = std::max({1.0, std::abs(x), std::abs(y)});
        EXPECT_NEAR(x, y, 1e-9 * scale);
    };
    near(a.fleet.makespanSeconds, b.fleet.makespanSeconds);
    near(a.fleet.busySeconds, b.fleet.busySeconds);
    near(a.fleet.tokensPerSecond, b.fleet.tokensPerSecond);
    near(a.fleet.goodputTokensPerSecond, b.fleet.goodputTokensPerSecond);
    near(a.fleet.joulesPerToken, b.fleet.joulesPerToken);
    near(a.fleet.p99LatencySeconds, b.fleet.p99LatencySeconds);
}

TEST(Fleet, TwoStaggeredReplicaDeathsRerouteInDeathOrder)
{
    Registry registry;
    const auto trace = fleetTrace(48, 400.0, 21);
    struct Case
    {
        const char *spec;
        std::size_t first, second; // replicas dying first and second.
        double deadlineShare;      // of the healthy makespan (0 = none).
    };
    // Reroutes off the first death land on the second (next index), so
    // some are dropped again and hop twice; dp=4 kills replica 3
    // first, so death order differs from index order. A deadline turns
    // part of the fleet's work into drops.
    for (const Case &c : {Case{"mcbp:dp=3,route=least", 0, 1, 0.0},
                          Case{"mcbp:dp=3,route=rr", 0, 1, 0.0},
                          Case{"mcbp:dp=4,route=least", 3, 0, 0.0},
                          Case{"mcbp:dp=4,route=rr", 3, 0, 0.0},
                          Case{"mcbp:dp=3,route=least", 0, 1, 0.3},
                          Case{"mcbp:dp=4,route=rr", 3, 0, 0.3}}) {
        SCOPED_TRACE(std::string(c.spec) + " deadline share " +
                     std::to_string(c.deadlineShare));
        auto accel = registry.make(c.spec);
        const auto *fleet =
            dynamic_cast<const FleetAccelerator *>(accel.get());
        ASSERT_NE(fleet, nullptr);
        const std::size_t dp = fleet->options().dataParallel;
        ASSERT_EQ(fleet->replica().capabilities().kvShards, 1u);

        // Paged KV under a fleet budget below the healthy peak.
        ServingOptions opts;
        opts.maxBatch = 4;
        opts.kvPolicy = KvPolicy::Paged;
        const FleetOutcome healthy =
            FleetRouter(*fleet, opts).simulate(trace);
        double replicaPeak = 0.0;
        for (const ServingReport &r : healthy.replicas)
            replicaPeak = std::max(replicaPeak, r.kvPeakBytes);
        const double makespan = healthy.fleet.makespanSeconds;
        opts.kvCapacityBytes =
            0.6 * replicaPeak * static_cast<double>(dp);
        opts.retry.deadlineSeconds = c.deadlineShare * makespan;

        // Chip r is replica r: two permanent deaths while the queues
        // are still full, the second just after the first's reroutes
        // arrive.
        std::vector<double> deadAt(dp,
                                   std::numeric_limits<double>::infinity());
        deadAt[c.first] = 0.2 * makespan;
        deadAt[c.second] = deadAt[c.first] +
                           opts.retry.backoffBaseSeconds + 0.1 * makespan;
        opts.faults.events.push_back(
            permanentFail(deadAt[c.first], c.first));
        opts.faults.events.push_back(
            permanentFail(deadAt[c.second], c.second));

        ServingOptions perTokenOpts = opts;
        perTokenOpts.stepMode = StepMode::PerToken;
        const FleetOutcome out = FleetRouter(*fleet, opts).simulate(trace);
        const FleetOutcome ref =
            FleetRouter(*fleet, perTokenOpts).simulate(trace);
        EXPECT_EQ(out.replicaRuns, dp);
        EXPECT_EQ(ref.replicaRuns, dp);
        EXPECT_GT(out.reroutes, 0u);
        EXPECT_GT(out.fleet.preemptions, 0u);
        if (c.deadlineShare > 0.0) {
            EXPECT_GT(out.fleet.droppedRequests, 0u);
        }

        // Every id completes or drops exactly once.
        std::map<std::size_t, std::size_t> outcomes;
        for (const RequestMetrics &r : out.fleet.requests)
            ++outcomes[r.id];
        for (const std::size_t id : out.fleet.dropOrder)
            ++outcomes[id];
        EXPECT_EQ(out.fleet.requests.size() + out.fleet.droppedRequests,
                  trace.size());
        std::map<std::size_t, std::size_t> indexById;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            indexById[trace[i].id] = i;
            EXPECT_EQ(outcomes[trace[i].id], 1u) << trace[i].id;
        }

        // Rebuild each request's path: the replicas that dropped it, in
        // death order, then its final replica. Each hop leaves at
        // max(arrival, death) + backoff onto a replica alive then.
        const auto diesBefore = [&](std::size_t a, std::size_t b) {
            return deadAt[a] != deadAt[b] ? deadAt[a] < deadAt[b] : a < b;
        };
        std::map<std::size_t, std::vector<std::size_t>> path;
        for (std::size_t r = 0; r < dp; ++r)
            for (const std::size_t id : out.replicas[r].dropOrder)
                path[id].push_back(r);
        std::size_t hopTotal = 0, twoHops = 0;
        for (auto &[id, visited] : path) {
            const std::size_t last = out.assignment[indexById.at(id)];
            if (std::find(visited.begin(), visited.end(), last) ==
                visited.end())
                visited.push_back(last);
            std::sort(visited.begin(), visited.end(), diesBefore);
            EXPECT_EQ(visited.back(), last) << id;
            const double t0 = trace[indexById.at(id)].arrivalSeconds;
            for (std::size_t k = 0; k + 1 < visited.size(); ++k) {
                const double tNew = std::max(t0, deadAt[visited[k]]) +
                                    opts.retry.backoffBaseSeconds;
                EXPECT_GT(deadAt[visited[k + 1]], tNew) << id;
            }
            hopTotal += visited.size() - 1;
            twoHops += visited.size() > 2 ? 1 : 0;
        }
        EXPECT_EQ(hopTotal, out.reroutes);
        if (c.deadlineShare == 0.0) {
            EXPECT_GT(twoHops, 0u);
        }

        // The fleet reroutes close retryOrder, one entry per hop, in
        // death order of the replica each hop leaves.
        ASSERT_GE(out.fleet.retryOrder.size(), out.reroutes);
        std::map<std::size_t, std::size_t> hopsSeen;
        std::size_t prevSource = c.first;
        for (std::size_t k = out.fleet.retryOrder.size() - out.reroutes;
             k < out.fleet.retryOrder.size(); ++k) {
            const std::size_t id = out.fleet.retryOrder[k];
            const std::size_t hop = hopsSeen[id]++;
            ASSERT_LT(hop + 1, path[id].size()) << id;
            const std::size_t source = path[id][hop];
            EXPECT_FALSE(diesBefore(source, prevSource)) << id;
            prevSource = source;
        }
        for (const auto &[id, visited] : path)
            EXPECT_EQ(hopsSeen[id], visited.size() - 1) << id;

        // Coalesced equals per-token.
        EXPECT_EQ(out.assignment, ref.assignment);
        EXPECT_EQ(out.reroutes, ref.reroutes);
        EXPECT_EQ(out.fleet.admissionOrder, ref.fleet.admissionOrder);
        EXPECT_EQ(out.fleet.preemptionOrder, ref.fleet.preemptionOrder);
        EXPECT_EQ(out.fleet.retryOrder, ref.fleet.retryOrder);
        EXPECT_EQ(out.fleet.dropOrder, ref.fleet.dropOrder);
        EXPECT_EQ(out.fleet.decodeIterations, ref.fleet.decodeIterations);
        EXPECT_EQ(out.fleet.preemptions, ref.fleet.preemptions);
        const auto near = [](double x, double y) {
            const double scale = std::max({1.0, std::abs(x), std::abs(y)});
            EXPECT_NEAR(x, y, 1e-9 * scale);
        };
        near(out.fleet.makespanSeconds, ref.fleet.makespanSeconds);
        near(out.fleet.busySeconds, ref.fleet.busySeconds);
        near(out.fleet.tokensPerSecond, ref.fleet.tokensPerSecond);
        near(out.fleet.joulesPerToken, ref.fleet.joulesPerToken);
        near(out.fleet.p99LatencySeconds, ref.fleet.p99LatencySeconds);
    }
}

TEST(Fleet, PodSpecServesEndToEnd)
{
    Registry registry;
    auto pod = registry.make("mcbp-s:dp=4,pp=4,tp=8");
    EXPECT_EQ(pod->capabilities().replicas, 4u);
    EXPECT_EQ(pod->capabilities().kvShards, 4u * 4u * 8u);
    // Plans through the replica (OPT1B3: 24 layers / pp=4, 32 heads /
    // tp=8 both divide).
    const model::LlmConfig &m = model::findModel("OPT1B3");
    const model::Workload &t = model::findTask("MBPP");
    EXPECT_GT(pod->plan(m, t).decode.cycles, 0.0);

    const auto trace = fleetTrace(16);
    const ServingReport report =
        ServingSimulator(*pod, {8}).simulate(trace);
    EXPECT_EQ(report.requests.size(), trace.size());
    EXPECT_EQ(report.droppedRequests, 0u);
    EXPECT_GT(report.tokensPerSecond, 0.0);
    EXPECT_NE(report.accelerator.find("[dp4]"), std::string::npos);
}

TEST(Fleet, MalformedFleetSpecsAreRejected)
{
    Registry registry;
    EXPECT_THROW((void)registry.make("mcbp:dp=0"), std::runtime_error);
    // route= without replicas (or at dp=1) is a silent no-op: reject.
    EXPECT_THROW((void)registry.make("mcbp:route=rr"),
                 std::runtime_error);
    EXPECT_THROW((void)registry.make("mcbp:dp=1,route=least"),
                 std::runtime_error);
    EXPECT_THROW((void)registry.make("mcbp:dp=2,route=bogus"),
                 std::runtime_error);
    // Nested fleets are rejected at construction.
    FleetOptions two;
    two.dataParallel = 2;
    EXPECT_THROW(FleetAccelerator(registry.make("mcbp:dp=2"), two),
                 std::runtime_error);
    // The aggregated unknown-key message advertises the fleet keys.
    try {
        (void)registry.make("mcbp:dq=4");
        FAIL() << "expected unknown-key rejection";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'dq'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("dp"), std::string::npos) << msg;
        EXPECT_NE(msg.find("route"), std::string::npos) << msg;
    }
}

} // namespace
} // namespace mcbp::engine
