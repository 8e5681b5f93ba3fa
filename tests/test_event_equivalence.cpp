/**
 * @file
 * Coalesced-vs-per-token equivalence contract of the event core
 * (event_core.hpp "Stepping"), over the full policy matrix
 * {fifo, skip-ahead, shortest-prompt} x {reserve, paged} x
 * {single chip, pp=2 x tp=2 cluster}:
 *  - every scheduling decision — admission order (including
 *    re-admissions), preemption victims, completion order — is
 *    exactly the per-token reference's;
 *  - aggregate times/energies agree to 1e-9 relative (the closed
 *    forms only re-associate floating-point sums);
 *  - coalescing actually coalesces (decodeWindows << decodeIterations)
 *    and the per-token path remains one pass per iteration;
 *  - under overload (two interleaved models at about twice the chip's
 *    capacity, so the queue grows for the whole trace) every decision
 *    log hashes to the value the eager admission path produced before
 *    the scheduler saw a lazy AdmissionView, and FIFO really takes the
 *    blocked-head deferral path (a different-model head with
 *    admissible peers behind it);
 *  - both step modes keep their canonical spellings.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/event_core.hpp"
#include "engine/health.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"
#include "model/request.hpp"
#include "sim/fault_model.hpp"

namespace mcbp::engine {
namespace {

std::vector<model::Request>
denseTrace(std::size_t n = 24)
{
    model::TraceConfig tc;
    tc.model = "OPT1B3";
    tc.task = "MBPP";
    tc.requests = n;
    tc.arrivalsPerSecond = 50.0;
    tc.seed = 17;
    return model::synthesizeTrace(tc);
}

void
expectNear(double a, double b, const char *what)
{
    const double scale = std::max(std::abs(a), std::abs(b));
    EXPECT_LE(std::abs(a - b), 1e-9 * std::max(scale, 1.0)) << what;
}

/** The full contract between a per-token and a coalesced run. */
void
expectEquivalent(const ServingReport &ref, const ServingReport &coal)
{
    // Decisions verbatim.
    EXPECT_EQ(ref.admissionOrder, coal.admissionOrder);
    EXPECT_EQ(ref.preemptionOrder, coal.preemptionOrder);
    EXPECT_EQ(ref.preemptions, coal.preemptions);
    EXPECT_EQ(ref.recomputedTokens, coal.recomputedTokens);
    EXPECT_EQ(ref.peakBatch, coal.peakBatch);
    EXPECT_EQ(ref.decodeIterations, coal.decodeIterations);
    ASSERT_EQ(ref.requests.size(), coal.requests.size());
    for (std::size_t i = 0; i < ref.requests.size(); ++i) {
        EXPECT_EQ(ref.requests[i].id, coal.requests[i].id)
            << "completion order diverged at " << i;
        EXPECT_EQ(ref.requests[i].preemptions,
                  coal.requests[i].preemptions);
        expectNear(ref.requests[i].completionSeconds,
                   coal.requests[i].completionSeconds, "completion");
        expectNear(ref.requests[i].firstTokenSeconds,
                   coal.requests[i].firstTokenSeconds, "first token");
        expectNear(ref.requests[i].joules, coal.requests[i].joules,
                   "request joules");
        expectNear(ref.requests[i].admissionSeconds,
                   coal.requests[i].admissionSeconds, "admission");
    }
    // Fault decisions verbatim too (all zero/empty on clean runs).
    EXPECT_EQ(ref.retryOrder, coal.retryOrder);
    EXPECT_EQ(ref.dropOrder, coal.dropOrder);
    EXPECT_EQ(ref.faultEvents, coal.faultEvents);
    EXPECT_EQ(ref.killedInFlight, coal.killedInFlight);
    EXPECT_EQ(ref.retriesScheduled, coal.retriesScheduled);
    EXPECT_EQ(ref.droppedRequests, coal.droppedRequests);
    EXPECT_EQ(ref.faultLostTokens, coal.faultLostTokens);
    // Aggregates to 1e-9 relative.
    expectNear(ref.busySeconds, coal.busySeconds, "busy");
    expectNear(ref.makespanSeconds, coal.makespanSeconds, "makespan");
    expectNear(ref.serialSeconds, coal.serialSeconds, "serial");
    expectNear(ref.joulesPerToken, coal.joulesPerToken, "J/token");
    expectNear(ref.meanTpotSeconds, coal.meanTpotSeconds, "TPOT");
    expectNear(ref.p99FirstTokenSeconds, coal.p99FirstTokenSeconds,
               "p99 TTFT");
    expectNear(ref.kvPeakBytes, coal.kvPeakBytes, "kv peak");
    expectNear(ref.degradedSeconds, coal.degradedSeconds, "degraded");
    expectNear(ref.outageSeconds, coal.outageSeconds, "outage");
    expectNear(ref.faultRecomputeSeconds, coal.faultRecomputeSeconds,
               "fault recompute");
    expectNear(ref.goodputTokensPerSecond, coal.goodputTokensPerSecond,
               "goodput");
}

TEST(EventEquivalence, CoalescedMatchesPerTokenAcrossPolicyMatrix)
{
    const auto trace = denseTrace();
    Registry registry;
    for (const char *spec : {"mcbp", "mcbp:pp=2,tp=2"}) {
        auto accel = registry.make(spec);
        for (SchedulerPolicy policy : allSchedulerPolicies()) {
            for (KvPolicy kv : allKvPolicies()) {
                ServingOptions opts;
                opts.maxBatch = 8;
                opts.policy = policy;
                opts.kvPolicy = kv;
                if (kv == KvPolicy::Paged) {
                    // Size the pool off an unbounded probe so the
                    // paged leg actually preempts and recomputes.
                    ServingOptions probe = opts;
                    probe.kvCapacityBytes = 0.0;
                    opts.kvCapacityBytes =
                        ServingSimulator(*accel, probe)
                            .simulate(trace)
                            .kvPeakBytes /
                        4.0;
                }
                ServingOptions ref = opts;
                ref.stepMode = StepMode::PerToken;
                ServingOptions coal = opts;
                coal.stepMode = StepMode::Coalesced;
                const ServingReport a =
                    ServingSimulator(*accel, ref).simulate(trace);
                const ServingReport b =
                    ServingSimulator(*accel, coal).simulate(trace);
                SCOPED_TRACE(std::string(spec) + " / " +
                             toString(policy) + " / " + toString(kv));
                if (kv == KvPolicy::Paged) {
                    EXPECT_GT(b.preemptions, 0u);
                }
                // Per-token runs one loop pass per iteration; the
                // coalesced run folds them into far fewer windows.
                EXPECT_EQ(a.decodeWindows, a.decodeIterations);
                EXPECT_LT(b.decodeWindows, b.decodeIterations);
                expectEquivalent(a, b);
            }
        }
    }
}

TEST(EventEquivalence, CoalescedMatchesPerTokenUnderInjectedFaults)
{
    const auto trace = denseTrace();
    Registry registry;
    for (const char *spec : {"mcbp", "mcbp:pp=2,tp=2"}) {
        auto accel = registry.make(spec);
        // The composed topology fails over to its degraded form; the
        // single chip has none and rides out an outage instead.
        const std::string deg = degradedSpec(spec);
        std::unique_ptr<Accelerator> degraded;
        if (!deg.empty())
            degraded = registry.make(deg);

        // Hand-authored timeline at fractions of the healthy
        // makespan: a transient chip failure (kills + retries), a
        // straggler stall and a link-degradation window.
        ServingOptions probe_opts;
        probe_opts.maxBatch = 8;
        const double T = ServingSimulator(*accel, probe_opts)
                             .simulate(trace)
                             .makespanSeconds;
        ASSERT_GT(T, 0.0);
        sim::FaultSpec faults;
        sim::FaultEvent fail;
        fail.at = T / 4.0;
        fail.kind = sim::FaultKind::ChipFail;
        fail.permanent = false;
        fail.repairAt = fail.at + T / 10.0;
        faults.events.push_back(fail);
        sim::FaultEvent stall;
        stall.at = T / 2.0;
        stall.kind = sim::FaultKind::StragglerStart;
        stall.factor = 1.75;
        faults.events.push_back(stall);
        sim::FaultEvent stall_end = stall;
        stall_end.at = 0.7 * T;
        stall_end.kind = sim::FaultKind::StragglerEnd;
        faults.events.push_back(stall_end);
        sim::FaultEvent link;
        link.at = 0.55 * T;
        link.kind = sim::FaultKind::LinkDegrade;
        link.factor = 0.5;
        faults.events.push_back(link);
        sim::FaultEvent link_end = link;
        link_end.at = 0.8 * T;
        link_end.kind = sim::FaultKind::LinkRestore;
        faults.events.push_back(link_end);

        for (KvPolicy kv : allKvPolicies()) {
            ServingOptions opts;
            opts.maxBatch = 8;
            opts.kvPolicy = kv;
            opts.faults = faults;
            opts.degradedAccel = degraded.get();
            if (kv == KvPolicy::Paged) {
                ServingOptions probe = probe_opts;
                probe.kvPolicy = kv;
                opts.kvCapacityBytes =
                    ServingSimulator(*accel, probe)
                        .simulate(trace)
                        .kvPeakBytes /
                    4.0;
            }
            ServingOptions ref = opts;
            ref.stepMode = StepMode::PerToken;
            ServingOptions coal = opts;
            coal.stepMode = StepMode::Coalesced;
            const ServingReport a =
                ServingSimulator(*accel, ref).simulate(trace);
            const ServingReport b =
                ServingSimulator(*accel, coal).simulate(trace);
            SCOPED_TRACE(std::string(spec) + " / " + toString(kv) +
                         " / faulted");
            // The leg must actually exercise the fault machinery (the
            // transient failure expands to fail + repair: 6 events).
            EXPECT_EQ(b.faultEvents, 6u);
            EXPECT_GT(b.killedInFlight, 0u);
            EXPECT_GT(b.retriesScheduled, 0u);
            EXPECT_LT(b.decodeWindows, b.decodeIterations);
            expectEquivalent(a, b);
        }
    }
}

/**
 * OPT1B3 and Bloom1B7 MBPP requests interleaved on one chip at
 * 1 req/s, about twice what skip-ahead serves at batch 8 (and more for
 * FIFO, which stalls on every model switch): the queue grows for the
 * whole trace.
 */
std::vector<model::Request>
twoModelOverloadTrace()
{
    std::vector<model::Request> trace;
    std::uint64_t seed = 23;
    for (const char *name : {"OPT1B3", "Bloom1B7"}) {
        model::TraceConfig tc;
        tc.model = name;
        tc.task = "MBPP";
        tc.requests = 120;
        tc.arrivalsPerSecond = 0.5;
        tc.seed = seed++;
        const auto part = model::synthesizeTrace(tc);
        trace.insert(trace.end(), part.begin(), part.end());
    }
    std::stable_sort(trace.begin(), trace.end(),
                     [](const model::Request &a, const model::Request &b) {
                         return a.arrivalSeconds < b.arrivalSeconds;
                     });
    for (std::size_t i = 0; i < trace.size(); ++i)
        trace[i].id = i;
    return trace;
}

/** FNV-1a over every decision log of @p r, each prefixed with its
 *  length (admission, preemption, completion, retry, drop), then the
 *  decode window count: a coalesced run's windows pin where it
 *  re-consulted the scheduler (a deferral pins a window to k = 1). */
std::uint64_t
decisionDigest(const ServingReport &r)
{
    std::vector<std::size_t> completion;
    for (const RequestMetrics &m : r.requests)
        completion.push_back(m.id);
    const std::vector<std::size_t> *logs[] = {
        &r.admissionOrder, &r.preemptionOrder, &completion, &r.retryOrder,
        &r.dropOrder};
    std::uint64_t h = 14695981039346656037ull;
    auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (const std::vector<std::size_t> *log : logs) {
        mix(log->size());
        for (std::size_t id : *log)
            mix(id);
    }
    mix(r.decodeWindows);
    return h;
}

/** Options of one overload cell: bounded reserve holds about half
 *  the unbounded peak, paged a quarter (so it preempts); the faulted
 *  variant adds a transient chip failure early in the trace (kills
 *  and retries) and a deadline that drops the longest-queued
 *  requests. */
ServingOptions
overloadOptions(const Accelerator &accel,
                const std::vector<model::Request> &trace,
                SchedulerPolicy policy, KvPolicy kv, bool faulted)
{
    ServingOptions opts;
    opts.maxBatch = 8;
    opts.policy = policy;
    ServingOptions probe = opts;
    probe.kvCapacityBytes = 0.0;
    const double peak =
        ServingSimulator(accel, probe).simulate(trace).kvPeakBytes;
    opts.kvPolicy = kv;
    opts.kvCapacityBytes = kv == KvPolicy::Paged ? peak / 4.0 : peak / 2.0;
    if (faulted) {
        sim::FaultEvent fail;
        fail.at = 60.0;
        fail.kind = sim::FaultKind::ChipFail;
        fail.permanent = false;
        fail.repairAt = 70.0;
        opts.faults.events.push_back(fail);
        opts.retry.deadlineSeconds = 300.0;
    }
    return opts;
}

TEST(EventEquivalence, OverloadDecisionsMatchEagerAdmission)
{
    // Digests captured from the eager admission path (every waiting
    // request built into a candidate vector at every consult).
    struct Cell
    {
        SchedulerPolicy policy;
        KvPolicy kv;
        bool faulted;
        std::uint64_t digest;
    };
    using P = SchedulerPolicy;
    using K = KvPolicy;
    const Cell cells[] = {
        {P::Fifo, K::Reserve, false, 0xa3380e87eef96005ull},
        {P::Fifo, K::Paged, false, 0xc00fe20fd1a3b73cull},
        {P::SkipAhead, K::Reserve, false, 0xe05def273437b543ull},
        {P::SkipAhead, K::Paged, false, 0xe58dce34a8d2f43eull},
        {P::ShortestPromptFirst, K::Reserve, false, 0x8d13f2ceac276e54ull},
        {P::ShortestPromptFirst, K::Paged, false, 0x69978a20368d1417ull},
        {P::Fifo, K::Reserve, true, 0x1425571fd617fd8eull},
        {P::Fifo, K::Paged, true, 0x302eb6a03f930a17ull},
        {P::SkipAhead, K::Reserve, true, 0xa7bf282bd6da546dull},
        {P::SkipAhead, K::Paged, true, 0x0eb6189e6ff1b578ull},
        {P::ShortestPromptFirst, K::Reserve, true, 0xd46c842118a51ff5ull},
        {P::ShortestPromptFirst, K::Paged, true, 0x795fc87a99d35511ull},
    };
    const auto trace = twoModelOverloadTrace();
    Registry registry;
    auto accel = registry.make("mcbp");
    for (const Cell &cell : cells) {
        const ServingOptions opts = overloadOptions(
            *accel, trace, cell.policy, cell.kv, cell.faulted);
        ServingOptions ref = opts;
        ref.stepMode = StepMode::PerToken;
        ServingOptions coal = opts;
        coal.stepMode = StepMode::Coalesced;
        const ServingReport a =
            ServingSimulator(*accel, ref).simulate(trace);
        const ServingReport b =
            ServingSimulator(*accel, coal).simulate(trace);
        SCOPED_TRACE(toString(cell.policy) + " / " + toString(cell.kv) +
                     (cell.faulted ? " / faulted" : ""));
        expectEquivalent(a, b);
        if (cell.kv == KvPolicy::Paged) {
            EXPECT_GT(b.preemptions, 0u);
        }
        if (cell.faulted) {
            EXPECT_GT(b.retriesScheduled, 0u);
            EXPECT_GT(b.droppedRequests, 0u);
        }
        EXPECT_EQ(decisionDigest(b), cell.digest)
            << std::hex << "0x" << decisionDigest(b);
    }
}

/** FIFO that counts its blocked-head deferrals: npos while an entry
 *  behind the head is admissible (the window-pinning case). */
class DeferralCountingFifo final : public Scheduler
{
  public:
    std::string name() const override { return "fifo"; }

    std::size_t
    pick(const AdmissionView &waiting, const KvPressure &kv) const override
    {
        const std::size_t choice = fifo_->pick(waiting, kv);
        if (choice == npos && waiting.anyAdmissible())
            ++deferrals;
        return choice;
    }

    mutable std::size_t deferrals = 0;

  private:
    std::unique_ptr<Scheduler> fifo_ = makeScheduler(SchedulerPolicy::Fifo);
};

TEST(EventEquivalence, OverloadFifoTakesBlockedHeadDeferral)
{
    const auto trace = twoModelOverloadTrace();
    Registry registry;
    auto accel = registry.make("mcbp");
    ServingOptions opts = overloadOptions(
        *accel, trace, SchedulerPolicy::Fifo, KvPolicy::Reserve, false);
    opts.stepMode = StepMode::Coalesced;
    const ServingSimulator sim(*accel, opts);
    const ServingReport report = sim.simulate(trace);

    ServingSimulator::CostedTrace costed = sim.costTrace(trace);
    KvOptions kv;
    kv.policy = opts.kvPolicy;
    kv.capacityBytes = opts.kvCapacityBytes;
    DeferralCountingFifo fifo;
    const EventStats stats =
        EventCore(fifo, opts.maxBatch, kv, nullptr, StepMode::Coalesced)
            .run(costed.costs);
    // A different-model head with admissible peers happens often...
    EXPECT_GT(fifo.deferrals, 0u);
    // ...and the wrapper's deferral walk changes no decision and
    // builds nothing new: the core's own walk after the npos reuses
    // every entry it memoized.
    EXPECT_EQ(stats.admissionOrder, report.admissionOrder);
    EXPECT_EQ(stats.admissionCandidates, report.admissionCandidates);
}

TEST(EventEquivalence, StepModeSpellings)
{
    EXPECT_EQ(toString(StepMode::Coalesced), "coalesced");
    EXPECT_EQ(toString(StepMode::PerToken), "per-token");
}

} // namespace
} // namespace mcbp::engine
