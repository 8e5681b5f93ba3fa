/**
 * @file
 * Fault-tolerant serving contract (sim/fault_model.hpp +
 * event_core.hpp + health.hpp):
 *  - the fault timeline is deterministic in (spec, chips) and stream-
 *    separated from trace synthesis (seed ^ kFaultStream), so enabling
 *    faults never perturbs the costed trace — pinned bit-identically;
 *  - a fault-enabled run whose timeline never fires is bit-identical
 *    to a plain run (the zero-fault purity gate);
 *  - transient chip failures kill in-flight work, retry it with
 *    backoff, and recover; permanent failures without a degraded plan
 *    drop everything into a zeroed-but-tagged report; with a degraded
 *    accelerator the fleet replans and serves through at degraded
 *    prices; deadlines drop queued work and dent SLO attainment;
 *  - degradedSpec()/degradedOptions() rewrite topologies the way a
 *    surviving fleet re-forms (halved axis, invalid knobs dropped).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/cluster.hpp"
#include "engine/health.hpp"
#include "engine/pipeline.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"
#include "model/request.hpp"
#include "sim/fault_model.hpp"

namespace mcbp::engine {
namespace {

std::vector<model::Request>
smallTrace(std::size_t n = 16, double rate = 30.0)
{
    model::TraceConfig tc;
    tc.model = "OPT1B3";
    tc.task = "MBPP";
    tc.requests = n;
    tc.arrivalsPerSecond = rate;
    tc.seed = 9;
    return model::synthesizeTrace(tc);
}

sim::FaultSpec
transientFailAt(double at, double repairSeconds)
{
    sim::FaultSpec spec;
    sim::FaultEvent e;
    e.at = at;
    e.kind = sim::FaultKind::ChipFail;
    e.chip = 0;
    e.permanent = false;
    e.repairAt = at + repairSeconds;
    spec.events.push_back(e);
    return spec;
}

/** Every field of @p a and @p b bit-identical. */
void
expectPricesIdentical(const TopologyPrice &a, const TopologyPrice &b)
{
    EXPECT_EQ(a.prefillCycles, b.prefillCycles);
    EXPECT_EQ(a.basePrefillCycles, b.basePrefillCycles);
    EXPECT_EQ(a.basePrefillJoules, b.basePrefillJoules);
    EXPECT_EQ(a.pendingPrefillJoules, b.pendingPrefillJoules);
    EXPECT_EQ(a.weightCyclesPerToken, b.weightCyclesPerToken);
    EXPECT_EQ(a.linearCyclesPerToken, b.linearCyclesPerToken);
    EXPECT_EQ(a.otherCyclesPerToken, b.otherCyclesPerToken);
    EXPECT_EQ(a.fixedCyclesPerToken, b.fixedCyclesPerToken);
    EXPECT_EQ(a.weightJoulesPerToken, b.weightJoulesPerToken);
    EXPECT_EQ(a.otherJoulesPerToken, b.otherJoulesPerToken);
    EXPECT_EQ(a.memorySerialized, b.memorySerialized);
    EXPECT_EQ(a.stages, b.stages);
}

TEST(FaultModel, TimelineDeterministicAndSeedSeparated)
{
    sim::FaultSpec spec;
    spec.seed = 7;
    spec.mtbfSeconds = 0.5;
    spec.repairSeconds = 0.1;
    spec.permanentFraction = 0.25;
    spec.linkDegradeRate = 2.0;
    spec.stragglerRate = 3.0;
    spec.horizonSeconds = 4.0;

    const auto a = sim::buildFaultTimeline(spec, 4);
    const auto b = sim::buildFaultTimeline(spec, 4);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, b[i].at);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].chip, b[i].chip);
        EXPECT_EQ(a[i].id, i); // Ids are timeline positions.
        if (i > 0) {
            EXPECT_LE(a[i - 1].at, a[i].at); // Sorted.
        }
    }

    // A different seed re-draws the processes.
    sim::FaultSpec other = spec;
    other.seed = 8;
    const auto c = sim::buildFaultTimeline(other, 4);
    bool differs = c.size() != a.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].at != c[i].at;
    EXPECT_TRUE(differs);

    // Stream separation: the fault stream's first draws are not the
    // trace-synthesis stream's (seed vs seed ^ kFaultStream).
    Rng trace_stream(spec.seed);
    Rng fault_stream(spec.seed ^ sim::kFaultStream);
    EXPECT_NE(trace_stream.next(), fault_stream.next());
}

TEST(FaultModel, GeneratedProcessesAreWellFormed)
{
    // Permanent-only failures: at most one ChipFail per chip, no
    // repairs ever emitted.
    sim::FaultSpec spec;
    spec.seed = 3;
    spec.mtbfSeconds = 0.2;
    spec.permanentFraction = 1.0;
    spec.horizonSeconds = 5.0;
    const auto events = sim::buildFaultTimeline(spec, 3);
    ASSERT_FALSE(events.empty());
    std::vector<std::size_t> fails(3, 0);
    for (const sim::FaultEvent &e : events) {
        ASSERT_EQ(e.kind, sim::FaultKind::ChipFail);
        EXPECT_TRUE(e.permanent);
        ++fails[e.chip];
    }
    for (std::size_t n : fails)
        EXPECT_LE(n, 1u);

    // Link windows come in (degrade, restore) pairs with the factor
    // carried on both ends.
    sim::FaultSpec link;
    link.seed = 3;
    link.linkDegradeRate = 5.0;
    link.linkDegradeSeconds = 0.05;
    link.linkDegradeFactor = 0.25;
    link.horizonSeconds = 2.0;
    const auto windows = sim::buildFaultTimeline(link, 1);
    ASSERT_FALSE(windows.empty());
    EXPECT_EQ(windows.size() % 2, 0u);
    std::size_t opens = 0;
    for (const sim::FaultEvent &e : windows) {
        EXPECT_EQ(e.factor, 0.25);
        if (e.kind == sim::FaultKind::LinkDegrade)
            ++opens;
        else
            EXPECT_EQ(e.kind, sim::FaultKind::LinkRestore);
    }
    EXPECT_EQ(opens * 2, windows.size());
}

TEST(FaultModel, KnobAndEventValidation)
{
    // Rates without a horizon cannot be sampled.
    sim::FaultSpec no_horizon;
    no_horizon.mtbfSeconds = 1.0;
    EXPECT_THROW((void)sim::buildFaultTimeline(no_horizon, 2),
                 std::runtime_error);

    // Explicit events: chip index bounds and transient repair times.
    sim::FaultSpec bad_chip = transientFailAt(0.1, 0.1);
    bad_chip.events[0].chip = 5;
    EXPECT_THROW((void)sim::buildFaultTimeline(bad_chip, 2),
                 std::runtime_error);
    sim::FaultSpec bad_repair = transientFailAt(0.1, 0.1);
    bad_repair.events[0].repairAt = 0.05;
    EXPECT_THROW((void)sim::buildFaultTimeline(bad_repair, 2),
                 std::runtime_error);

    // Retry knobs: every seconds value must be finite and >= 0 once
    // faults are on (a negative backoff would retry before the kill),
    // on the flat path and on a fleet whose replica dies.
    Registry registry;
    const auto flat = registry.make("mcbp");
    const auto fleet = registry.make("mcbp:dp=2");
    const auto trace = smallTrace(4);
    sim::FaultSpec death;
    sim::FaultEvent fail;
    fail.at = 0.01;
    fail.kind = sim::FaultKind::ChipFail;
    fail.permanent = true;
    death.events.push_back(fail);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double RetryOptions::*knob :
         {&RetryOptions::backoffBaseSeconds,
          &RetryOptions::backoffCapSeconds,
          &RetryOptions::deadlineSeconds}) {
        for (const double bad : {-0.01, nan, inf, -inf}) {
            ServingOptions opts;
            opts.retry.*knob = bad;
            opts.faults = transientFailAt(0.01, 0.1);
            EXPECT_THROW((void)ServingSimulator(*flat, opts).simulate(trace),
                         std::runtime_error)
                << bad;
            opts.faults = death;
            EXPECT_THROW(
                (void)ServingSimulator(*fleet, opts).simulate(trace),
                std::runtime_error)
                << bad;
            // Not consulted (nor checked) while faults are off.
            opts.faults = {};
            EXPECT_NO_THROW(
                (void)ServingSimulator(*flat, opts).simulate(trace));
        }
    }

    // Out-of-order explicit events are sorted and id-stamped.
    sim::FaultSpec unsorted;
    sim::FaultEvent late;
    late.at = 2.0;
    late.kind = sim::FaultKind::StragglerStart;
    late.factor = 2.0;
    sim::FaultEvent early = late;
    early.at = 1.0;
    unsorted.events = {late, early};
    const auto sorted = sim::buildFaultTimeline(unsorted, 1);
    ASSERT_EQ(sorted.size(), 2u);
    EXPECT_EQ(sorted[0].at, 1.0);
    EXPECT_EQ(sorted[1].at, 2.0);
    EXPECT_EQ(sorted[0].id, 0u);
    EXPECT_EQ(sorted[1].id, 1u);
}

TEST(FaultServing, CostedTraceBitIdenticalWithFaultsEnabled)
{
    const auto trace = smallTrace();
    Registry registry;
    const auto accel = registry.make("mcbp");

    ServingOptions plain;
    ServingOptions faulted = plain;
    faulted.faults.mtbfSeconds = 1.0;
    faulted.faults.horizonSeconds = 2.0;

    const auto healthy = ServingSimulator(*accel, plain).costTrace(trace);
    const auto injected =
        ServingSimulator(*accel, faulted).costTrace(trace);
    ASSERT_EQ(healthy.costs.size(), injected.costs.size());
    EXPECT_EQ(healthy.clockGhz, injected.clockGhz);
    EXPECT_EQ(healthy.serialSeconds, injected.serialSeconds);
    for (std::size_t i = 0; i < healthy.costs.size(); ++i) {
        const CostedRequest &h = healthy.costs[i];
        const CostedRequest &f = injected.costs[i];
        EXPECT_EQ(h.arrivalCycles, f.arrivalCycles);
        EXPECT_EQ(h.kvBytes, f.kvBytes);
        // Both runs defer the prefill charge to admission: nothing is
        // accumulated at costing, and every price field is the same
        // double on both topologies.
        EXPECT_EQ(h.joules, 0.0);
        EXPECT_EQ(f.joules, 0.0);
        for (std::size_t t = 0; t < kTopologies; ++t) {
            SCOPED_TRACE(t);
            expectPricesIdentical(h.price[t], f.price[t]);
        }
        EXPECT_EQ(f.price[kHealthy].basePrefillCycles,
                  f.price[kHealthy].prefillCycles);
        EXPECT_EQ(f.price[kHealthy].pendingPrefillJoules,
                  f.price[kHealthy].basePrefillJoules);
    }
}

TEST(FaultServing, DegradedTwinIsTheDegradedAcceleratorsHealthyPrice)
{
    // The degraded record is built the same way as the healthy one,
    // so pricing a request on D as the fleet's fallback and pricing it
    // on D as the primary give the same bits, field for field.
    const auto trace = smallTrace();
    Registry registry;
    const std::string spec = "mcbp:pp=2,tp=2";
    const auto accel = registry.make(spec);
    const auto degraded = registry.make(degradedSpec(spec));

    ServingOptions failover;
    failover.degradedAccel = degraded.get();
    failover.faults = transientFailAt(1.0, 0.5);
    const auto twin = ServingSimulator(*accel, failover).costTrace(trace);
    const auto direct = ServingSimulator(*degraded).costTrace(trace);
    ASSERT_EQ(twin.costs.size(), direct.costs.size());
    for (std::size_t i = 0; i < twin.costs.size(); ++i) {
        SCOPED_TRACE(i);
        expectPricesIdentical(twin.costs[i].price[kDegraded],
                              direct.costs[i].price[kHealthy]);
    }
    // And the fallback really is a different price from the primary.
    EXPECT_NE(twin.costs[0].price[kDegraded].prefillCycles,
              twin.costs[0].price[kHealthy].prefillCycles);
}

TEST(FaultServing, ZeroEventRunBitIdenticalToPlainRun)
{
    const auto trace = smallTrace();
    Registry registry;
    const auto accel = registry.make("mcbp");

    ServingOptions plain;
    plain.maxBatch = 8;
    // Faults armed but statistically inert: the sampled timeline over
    // this horizon is empty, so every fault branch stays cold.
    ServingOptions armed = plain;
    armed.faults.mtbfSeconds = 1e9;
    armed.faults.horizonSeconds = 1e-6;

    const ServingReport a = ServingSimulator(*accel, plain).simulate(trace);
    const ServingReport b = ServingSimulator(*accel, armed).simulate(trace);
    ASSERT_EQ(b.faultEvents, 0u);
    EXPECT_FALSE(b.noCompletions);

    // Bit-identical, not approximately equal.
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.busySeconds, b.busySeconds);
    EXPECT_EQ(a.tokensPerSecond, b.tokensPerSecond);
    EXPECT_EQ(a.joulesPerToken, b.joulesPerToken);
    EXPECT_EQ(a.meanLatencySeconds, b.meanLatencySeconds);
    EXPECT_EQ(a.p99LatencySeconds, b.p99LatencySeconds);
    EXPECT_EQ(a.admissionOrder, b.admissionOrder);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].id, b.requests[i].id);
        EXPECT_EQ(a.requests[i].completionSeconds,
                  b.requests[i].completionSeconds);
        EXPECT_EQ(a.requests[i].firstTokenSeconds,
                  b.requests[i].firstTokenSeconds);
        EXPECT_EQ(a.requests[i].joules, b.requests[i].joules);
    }
    // Availability on a clean run: full goodput, full SLO attainment.
    EXPECT_EQ(b.goodputTokensPerSecond, b.tokensPerSecond);
    EXPECT_EQ(b.sloAttainment, 1.0);
    EXPECT_EQ(b.droppedRequests, 0u);
    EXPECT_EQ(b.degradedSeconds, 0.0);
}

TEST(FaultServing, TransientOutageKillsRetriesAndRecovers)
{
    const auto trace = smallTrace();
    Registry registry;
    const auto accel = registry.make("mcbp");

    ServingOptions plain;
    plain.maxBatch = 8;
    const ServingReport healthy =
        ServingSimulator(*accel, plain).simulate(trace);
    ASSERT_GT(healthy.makespanSeconds, 0.0);

    // One transient failure mid-run on a fleet with no degraded plan:
    // a full outage until the repair, every in-flight request killed
    // and retried.
    ServingOptions opts = plain;
    opts.faults =
        transientFailAt(healthy.makespanSeconds / 3.0, 0.2);
    const ServingReport r = ServingSimulator(*accel, opts).simulate(trace);

    EXPECT_EQ(r.faultEvents, 2u); // Fail + repair.
    EXPECT_GT(r.killedInFlight, 0u);
    EXPECT_GT(r.retriesScheduled, 0u);
    EXPECT_EQ(r.droppedRequests, 0u); // Budget 3 >= the single kill.
    EXPECT_EQ(r.requests.size(), trace.size());
    EXPECT_GT(r.faultRecomputeSeconds, 0.0);
    EXPECT_GT(r.outageSeconds, 0.0);
    EXPECT_EQ(r.degradedSeconds, 0.0); // No degraded plan exists.
    EXPECT_GT(r.makespanSeconds, healthy.makespanSeconds);
    EXPECT_EQ(r.retryOrder.size(), r.retriesScheduled);
    ASSERT_FALSE(r.faultLog.empty());
    EXPECT_EQ(r.faultLog[0].kind, "chip-fail");
    EXPECT_EQ(r.faultLog[0].killed, r.killedInFlight);
    // Lost decode progress was re-served: goodput <= healthy rate.
    EXPECT_LE(r.goodputTokensPerSecond, healthy.tokensPerSecond);
}

TEST(FaultServing, PermanentFailureWithoutSpareDropsEverything)
{
    const auto trace = smallTrace();
    Registry registry;
    const auto accel = registry.make("mcbp");

    ServingOptions opts;
    sim::FaultEvent e;
    e.at = 0.0;
    e.kind = sim::FaultKind::ChipFail;
    e.permanent = true;
    opts.faults.events.push_back(e);

    const ServingReport r = ServingSimulator(*accel, opts).simulate(trace);
    // The zeroed-but-tagged report: no completions, no percentile
    // indexing, every drop accounted.
    EXPECT_TRUE(r.noCompletions);
    EXPECT_TRUE(r.requests.empty());
    EXPECT_EQ(r.droppedRequests, trace.size());
    EXPECT_EQ(r.dropOrder.size(), trace.size());
    EXPECT_EQ(r.p99LatencySeconds, 0.0);
    EXPECT_EQ(r.p99FirstTokenSeconds, 0.0);
    EXPECT_EQ(r.meanTpotSeconds, 0.0);
    EXPECT_EQ(r.tokensPerSecond, 0.0);
    EXPECT_EQ(r.goodputTokensPerSecond, 0.0);
    EXPECT_EQ(r.sloAttainment, 0.0);
}

TEST(FaultServing, DegradedReplanServesThroughPermanentFailure)
{
    const auto trace = smallTrace();
    Registry registry;
    const auto accel = registry.make("mcbp:tp=2");
    // The surviving topology, derived by the health rewrite and built
    // through the same registry.
    const std::string spare = degradedSpec("mcbp:tp=2");
    EXPECT_EQ(spare, "mcbp");
    const auto degraded = registry.make(spare);

    ServingOptions plain;
    plain.maxBatch = 8;
    const ServingReport healthy =
        ServingSimulator(*accel, plain).simulate(trace);

    ServingOptions opts = plain;
    opts.degradedAccel = degraded.get();
    sim::FaultEvent e;
    e.at = healthy.makespanSeconds / 3.0;
    e.kind = sim::FaultKind::ChipFail;
    e.chip = 1;
    e.permanent = true;
    opts.faults.events.push_back(e);

    const ServingReport r = ServingSimulator(*accel, opts).simulate(trace);
    // Everything completes — on the slower surviving fleet.
    EXPECT_EQ(r.requests.size(), trace.size());
    EXPECT_EQ(r.droppedRequests, 0u);
    EXPECT_GT(r.killedInFlight, 0u);
    EXPECT_GT(r.degradedSeconds, 0.0);
    EXPECT_EQ(r.outageSeconds, 0.0); // Degraded, never down.
    EXPECT_GT(r.degradedFraction, 0.0);
    EXPECT_LE(r.degradedFraction, 1.0);
    EXPECT_GT(r.makespanSeconds, healthy.makespanSeconds);

    // A second permanent failure exhausts the replan and is fatal.
    sim::FaultEvent e2 = e;
    e2.at = e.at * 1.5;
    e2.chip = 0;
    opts.faults.events.push_back(e2);
    const ServingReport rr =
        ServingSimulator(*accel, opts).simulate(trace);
    EXPECT_GT(rr.droppedRequests, 0u);
    EXPECT_LT(rr.sloAttainment, 1.0);
}

TEST(FaultServing, DeadlinesDropQueuedWorkDuringOutage)
{
    const auto trace = smallTrace(16, 60.0); // Dense arrivals queue up.
    Registry registry;
    const auto accel = registry.make("mcbp");

    ServingOptions plain;
    plain.maxBatch = 4;
    const ServingReport healthy =
        ServingSimulator(*accel, plain).simulate(trace);

    ServingOptions opts = plain;
    // A long outage early in the run with a short completion deadline:
    // queued work expires while the fleet is down.
    opts.faults = transientFailAt(healthy.makespanSeconds / 4.0,
                                  healthy.makespanSeconds * 2.0);
    opts.retry.deadlineSeconds = healthy.makespanSeconds / 2.0;
    const ServingReport r = ServingSimulator(*accel, opts).simulate(trace);

    EXPECT_GT(r.droppedRequests, 0u);
    EXPECT_LT(r.sloAttainment, 1.0);
    EXPECT_LE(r.goodputTokensPerSecond, r.tokensPerSecond);
    EXPECT_EQ(r.dropOrder.size(), r.droppedRequests);
    // Dropped and completed partition the trace.
    EXPECT_EQ(r.requests.size() + r.droppedRequests, trace.size());
}

TEST(FaultServing, StragglerAndLinkWindowsSlowWithoutKilling)
{
    const auto trace = smallTrace();
    Registry registry;
    const auto accel = registry.make("mcbp:tp=2");

    ServingOptions plain;
    plain.maxBatch = 8;
    const ServingReport healthy =
        ServingSimulator(*accel, plain).simulate(trace);

    ServingOptions opts = plain;
    const double third = healthy.makespanSeconds / 3.0;
    sim::FaultEvent s;
    s.at = third;
    s.kind = sim::FaultKind::StragglerStart;
    s.factor = 2.0;
    sim::FaultEvent se = s;
    se.at = 2.0 * third;
    se.kind = sim::FaultKind::StragglerEnd;
    sim::FaultEvent l;
    l.at = third * 1.2;
    l.kind = sim::FaultKind::LinkDegrade;
    l.factor = 0.5;
    sim::FaultEvent le = l;
    le.at = third * 1.8;
    le.kind = sim::FaultKind::LinkRestore;
    opts.faults.events = {s, se, l, le};

    const ServingReport r = ServingSimulator(*accel, opts).simulate(trace);
    EXPECT_EQ(r.faultEvents, 4u);
    EXPECT_EQ(r.killedInFlight, 0u);
    EXPECT_EQ(r.droppedRequests, 0u);
    EXPECT_EQ(r.requests.size(), trace.size());
    EXPECT_GT(r.makespanSeconds, healthy.makespanSeconds);
    EXPECT_EQ(r.tokensPerSecond, r.goodputTokensPerSecond);
}

/** FNV-1a over the bit pattern of every per-request double, every
 *  report aggregate and every decision/fault log of @p r: any change
 *  to a single bit of the serving outcome moves it. */
std::uint64_t
reportDigest(const ServingReport &r)
{
    std::uint64_t h = 14695981039346656037ull;
    auto word = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    auto bits = [&word](double v) {
        std::uint64_t b = 0;
        std::memcpy(&b, &v, sizeof b);
        word(b);
    };
    auto log = [&word](const std::vector<std::size_t> &ids) {
        word(ids.size());
        for (std::size_t id : ids)
            word(id);
    };
    word(r.requests.size());
    for (const RequestMetrics &m : r.requests) {
        word(m.id);
        for (double v : {m.arrivalSeconds, m.admissionSeconds,
                         m.firstTokenSeconds, m.completionSeconds,
                         m.kvBytes, m.joules})
            bits(v);
        for (std::size_t v : {m.decodeTokens, m.preemptions,
                              m.recomputedTokens, m.retries})
            word(v);
        word(m.sloMiss);
    }
    for (double v :
         {r.makespanSeconds, r.busySeconds, r.serialSeconds,
          r.serialJoules, r.meanLatencySeconds, r.p50LatencySeconds,
          r.p90LatencySeconds, r.p99LatencySeconds, r.p50QueueSeconds,
          r.p90QueueSeconds, r.p99QueueSeconds, r.p50FirstTokenSeconds,
          r.p90FirstTokenSeconds, r.p99FirstTokenSeconds,
          r.meanTpotSeconds, r.tokensPerSecond, r.joulesPerToken,
          r.meanBatchOccupancy, r.kvPeakBytes, r.kvUtilization,
          r.kvBlockUtilization, r.kvFragmentationPeakBytes,
          r.faultRecomputeSeconds, r.degradedSeconds, r.outageSeconds,
          r.degradedFraction, r.goodputTokensPerSecond, r.sloAttainment})
        bits(v);
    for (std::size_t v :
         {r.peakBatch, r.preemptions, r.recomputedTokens,
          r.decodeIterations, r.decodeWindows, r.admissionCandidates,
          r.faultEvents, r.killedInFlight, r.retriesScheduled,
          r.droppedRequests, r.faultLostTokens})
        word(v);
    word(r.noCompletions);
    log(r.admissionOrder);
    log(r.preemptionOrder);
    log(r.retryOrder);
    log(r.dropOrder);
    word(r.faultLog.size());
    for (const ServingReport::FaultImpact &f : r.faultLog) {
        word(f.eventId);
        bits(f.seconds);
        word(f.chip);
        word(f.permanent);
        word(f.killed);
        word(f.dropped);
    }
    return h;
}

TEST(FaultServing, DegradedPathGoldenBits)
{
    // No benchmark workload serves on a degraded topology, so this
    // pins every bit of it: a pp=2 x tp=2 fleet that degrades on a
    // transient chip failure, recovers, then loses a chip for good
    // and serves the rest of the trace degraded, under reserve and
    // under a paged pool small enough to preempt.
    const auto trace = smallTrace(24, 50.0);
    Registry registry;
    const std::string spec = "mcbp:pp=2,tp=2";
    const auto accel = registry.make(spec);
    const auto degraded = registry.make(degradedSpec(spec));

    ServingOptions plain;
    plain.maxBatch = 8;
    plain.stepMode = StepMode::Coalesced;
    const double T =
        ServingSimulator(*accel, plain).simulate(trace).makespanSeconds;
    ASSERT_GT(T, 0.0);

    ServingOptions opts = plain;
    opts.degradedAccel = degraded.get();
    opts.faults = transientFailAt(T / 4.0, T / 10.0);
    sim::FaultEvent loss;
    loss.at = T / 2.0;
    loss.kind = sim::FaultKind::ChipFail;
    loss.chip = 1;
    loss.permanent = true;
    opts.faults.events.push_back(loss);

    // Captured from the engine before the per-topology price record
    // replaced CostedRequest's degraded twin fields.
    struct Cell
    {
        KvPolicy kv;
        std::uint64_t digest;
    };
    const Cell cells[] = {
        {KvPolicy::Reserve, 0xd48424c2b24ec633ull},
        {KvPolicy::Paged, 0xcbbb58ec0ee3055bull},
    };
    for (const Cell &cell : cells) {
        ServingOptions o = opts;
        o.kvPolicy = cell.kv;
        if (cell.kv == KvPolicy::Paged) {
            ServingOptions probe = plain;
            probe.kvPolicy = KvPolicy::Paged;
            o.kvCapacityBytes =
                ServingSimulator(*accel, probe).simulate(trace).kvPeakBytes /
                4.0;
        }
        const ServingReport r = ServingSimulator(*accel, o).simulate(trace);
        SCOPED_TRACE(toString(cell.kv));
        // The run must reach every degraded-path branch it pins.
        EXPECT_EQ(r.faultEvents, 3u); // Fail + repair + permanent loss.
        EXPECT_GT(r.killedInFlight, 0u);
        EXPECT_GT(r.degradedSeconds, 0.0);
        EXPECT_EQ(r.outageSeconds, 0.0);
        EXPECT_EQ(r.requests.size(), trace.size());
        if (cell.kv == KvPolicy::Paged) {
            EXPECT_GT(r.preemptions, 0u);
        }
        EXPECT_EQ(reportDigest(r), cell.digest)
            << std::hex << "0x" << reportDigest(r);
    }
}

TEST(Health, DegradedSpecRewritesTopologies)
{
    EXPECT_EQ(degradedSpec("mcbp:procs=148,tp=4"),
              "mcbp:procs=148,tp=2");
    EXPECT_EQ(degradedSpec("mcbp:tp=2"), "mcbp");
    EXPECT_EQ(degradedSpec("mcbp:pp=4,mb=8"), "mcbp:pp=2,mb=8");
    // Collapsing to a single chip sheds the knobs the registry would
    // reject without a fabric/pipeline.
    EXPECT_EQ(degradedSpec("mcbp:pp=2,mb=8,linkgbs=600"), "mcbp");
    // tp halves before pp re-partitions.
    EXPECT_EQ(degradedSpec("mcbp:pp=2,tp=2"), "mcbp:pp=2");
    // No redundancy, no degraded form.
    EXPECT_EQ(degradedSpec("mcbp"), "");
    EXPECT_EQ(degradedSpec("mcbp:tp=1"), "");

    // Every non-empty rewrite must actually build.
    Registry registry;
    for (const char *spec :
         {"mcbp:procs=148,tp=4", "mcbp:tp=2", "mcbp:pp=4,mb=8",
          "mcbp:pp=2,mb=8,linkgbs=600", "mcbp:pp=2,tp=2"}) {
        const std::string deg = degradedSpec(spec);
        ASSERT_FALSE(deg.empty()) << spec;
        EXPECT_NO_THROW((void)registry.make(deg)) << deg;
    }
}

TEST(Health, DegradedOptionsHalveTheFailedAxis)
{
    ClusterOptions c;
    c.tensorParallel = 4;
    EXPECT_EQ(c.degradedOptions().tensorParallel, 2u);
    c.tensorParallel = 1;
    EXPECT_EQ(c.degradedOptions().tensorParallel, 1u);

    PipelineOptions p;
    p.pipelineParallel = 4;
    p.microBatches = 8;
    EXPECT_EQ(p.degradedOptions().pipelineParallel, 2u);
    EXPECT_EQ(p.degradedOptions().microBatches, 8u);
    p.pipelineParallel = 2;
    EXPECT_EQ(p.degradedOptions().pipelineParallel, 1u);
    EXPECT_EQ(p.degradedOptions().microBatches, 1u);
}

} // namespace
} // namespace mcbp::engine
