/**
 * @file
 * Paged-KV admission invariants (the preempt-and-recompute path):
 *  - block-rounding and footprint math, including the zero-decode and
 *    unbounded-sentinel (<= 0) edges, uniformly across serving and
 *    cluster paths;
 *  - paged == reserve bit-for-bit (times, energies, admissions) when
 *    the capacity never binds, at tp=1;
 *  - the reserve policy ignores every paging knob (pre-paging parity);
 *  - under KV pressure, paging admits at least as many requests as
 *    reservation by any horizon, preempts and re-queues for recompute
 *    without dropping or duplicating requests, and never exceeds the
 *    configured capacity;
 *  - preemption is deterministic: identical trace + seed gives
 *    bit-identical reports at profileThreads 1 and 8;
 *  - the shortest-prompt scheduler's aging term bounds long-prompt
 *    starvation under a sustained short-prompt flood;
 *  - an empty trace yields a zeroed report instead of indexing into
 *    empty percentile vectors.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "engine/kv_block_manager.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"
#include "model/llm_config.hpp"

namespace mcbp::engine {
namespace {

std::vector<model::Request>
denseTrace(std::size_t n = 24, const char *model = "Llama7B",
           std::uint64_t seed = 11)
{
    model::TraceConfig tc;
    tc.model = model;
    tc.task = "MBPP";
    tc.requests = n;
    tc.arrivalsPerSecond = 50.0; // dense enough that batches form.
    tc.seed = seed;
    return model::synthesizeTrace(tc);
}

double
lastArrival(const std::vector<model::Request> &trace)
{
    double last = 0.0;
    for (const model::Request &r : trace)
        last = std::max(last, r.arrivalSeconds);
    return last;
}

std::size_t
admittedBy(const ServingReport &r, double horizonSeconds)
{
    std::size_t n = 0;
    for (const RequestMetrics &m : r.requests)
        if (m.admissionSeconds <= horizonSeconds)
            ++n;
    return n;
}

void
expectConserves(const ServingReport &r, std::size_t expected)
{
    ASSERT_EQ(r.requests.size(), expected);
    std::vector<bool> seen(expected, false);
    for (const RequestMetrics &m : r.requests) {
        ASSERT_LT(m.id, seen.size());
        EXPECT_FALSE(seen[m.id]) << "duplicate id " << m.id;
        seen[m.id] = true;
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](bool b) { return b; }));
}

/** Every field two runs of the same costed trace must agree on. */
void
expectReportsIdentical(const ServingReport &a, const ServingReport &b)
{
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.busySeconds, b.busySeconds);
    EXPECT_EQ(a.serialSeconds, b.serialSeconds);
    EXPECT_EQ(a.serialJoules, b.serialJoules);
    EXPECT_EQ(a.p50LatencySeconds, b.p50LatencySeconds);
    EXPECT_EQ(a.p99LatencySeconds, b.p99LatencySeconds);
    EXPECT_EQ(a.p99QueueSeconds, b.p99QueueSeconds);
    EXPECT_EQ(a.joulesPerToken, b.joulesPerToken);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.recomputedTokens, b.recomputedTokens);
    EXPECT_EQ(a.kvPeakBytes, b.kvPeakBytes);
    EXPECT_EQ(a.kvBlockUtilization, b.kvBlockUtilization);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].id, b.requests[i].id);
        EXPECT_EQ(a.requests[i].admissionSeconds,
                  b.requests[i].admissionSeconds);
        EXPECT_EQ(a.requests[i].completionSeconds,
                  b.requests[i].completionSeconds);
        EXPECT_EQ(a.requests[i].preemptions, b.requests[i].preemptions);
        EXPECT_EQ(a.requests[i].joules, b.requests[i].joules);
    }
}

TEST(KvBlocks, PolicyNamesRoundTrip)
{
    for (KvPolicy p : allKvPolicies())
        EXPECT_EQ(kvPolicyFromString(toString(p)), p);
    EXPECT_THROW((void)kvPolicyFromString("swap"), std::runtime_error);
}

TEST(KvBlocks, FootprintAndRoundingMath)
{
    KvOptions kv;
    kv.blockTokens = 16;
    kv.capacityBytes = 1000.0;
    const KvBlockManager mgr(kv);
    // 17 tokens at 2 B/token -> 2 blocks of 16 tokens = 64 B.
    EXPECT_DOUBLE_EQ(mgr.allocatedBytes(2.0, 17), 64.0);
    EXPECT_DOUBLE_EQ(mgr.allocatedBytes(2.0, 16), 32.0);
    EXPECT_DOUBLE_EQ(mgr.allocatedBytes(2.0, 0), 0.0);

    // Footprints: exact under reserve, block-rounded under paged,
    // zero whenever no token is generated (prefill-only requests
    // retain no KV) under either policy.
    kv.policy = KvPolicy::Reserve;
    EXPECT_DOUBLE_EQ(kvFootprintBytes(kv, 2.0, 10, 7), 34.0);
    EXPECT_DOUBLE_EQ(kvFootprintBytes(kv, 2.0, 10, 0), 0.0);
    kv.policy = KvPolicy::Paged;
    EXPECT_DOUBLE_EQ(kvFootprintBytes(kv, 2.0, 10, 7), 64.0);
    EXPECT_DOUBLE_EQ(kvFootprintBytes(kv, 2.0, 10, 0), 0.0);

    // The unified sentinel: any capacity <= 0 is unbounded.
    EXPECT_TRUE(kvUnbounded(0.0));
    EXPECT_TRUE(kvUnbounded(-3.0));
    EXPECT_FALSE(kvUnbounded(1.0));

    // Admission charges: the whole footprint under reserve (resident
    // tokens ignored), the block-rounded residency covering its exact
    // bytes under paged.
    kv.policy = KvPolicy::Reserve;
    const KvCharge reserved =
        KvBlockManager(kv).admissionCharge(34.0, 2.0, 10);
    EXPECT_DOUBLE_EQ(reserved.allocated, 34.0);
    EXPECT_DOUBLE_EQ(reserved.needed, 34.0);
    kv.policy = KvPolicy::Paged;
    const KvCharge paged =
        KvBlockManager(kv).admissionCharge(64.0, 2.0, 10);
    EXPECT_DOUBLE_EQ(paged.allocated, 32.0);
    EXPECT_DOUBLE_EQ(paged.needed, 20.0);

    // Watermark headroom applies to paged admission checks only.
    KvOptions tight;
    tight.policy = KvPolicy::Paged;
    tight.blockTokens = 16;
    tight.capacityBytes = 100.0;
    tight.lowWatermark = 0.1;
    const KvBlockManager pool(tight);
    EXPECT_TRUE(pool.fits(95.0, /*admission=*/false));
    EXPECT_FALSE(pool.fits(95.0, /*admission=*/true));
    EXPECT_TRUE(pool.fits(90.0, /*admission=*/true));
    tight.policy = KvPolicy::Reserve;
    const KvBlockManager reserve_pool(tight);
    EXPECT_TRUE(reserve_pool.fits(100.0, /*admission=*/true));
    EXPECT_FALSE(reserve_pool.fits(100.5, /*admission=*/true));

    // An unbounded pool fits anything and reports the unbounded
    // pressure defaults.
    const KvBlockManager open_pool{KvOptions{}};
    EXPECT_TRUE(open_pool.fits(1e30, /*admission=*/true));
    const KvPressure p = open_pool.pressure();
    EXPECT_FALSE(p.bounded);
    EXPECT_EQ(p.freeBytes, 0.0);
    EXPECT_EQ(p.freeFraction, 1.0);
}

TEST(KvBlocks, LedgerTracksPeaksAndFragmentation)
{
    KvOptions kv;
    kv.blockTokens = 8;
    kv.capacityBytes = 256.0;
    kv.policy = KvPolicy::Paged;
    KvBlockManager pool(kv);
    pool.add(128.0, 100.0);
    pool.add(64.0, 60.0);
    EXPECT_DOUBLE_EQ(pool.usedBytes(), 192.0);
    EXPECT_DOUBLE_EQ(pool.neededBytes(), 160.0);
    EXPECT_DOUBLE_EQ(pool.peakFragmentationBytes(), 32.0);
    const KvPressure p = pool.pressure();
    EXPECT_TRUE(p.bounded);
    EXPECT_DOUBLE_EQ(p.freeBytes, 64.0);
    EXPECT_DOUBLE_EQ(p.freeFraction, 0.25);
    pool.remove(128.0, 100.0);
    pool.remove(64.0, 60.0);
    pool.clearIdleResidual();
    EXPECT_DOUBLE_EQ(pool.usedBytes(), 0.0);
    EXPECT_DOUBLE_EQ(pool.peakUsedBytes(), 192.0);
    EXPECT_DOUBLE_EQ(pool.pressure().freeBytes, 256.0);

    // Reserve: each request charges its footprint as both allocated
    // and needed bytes, so the peak tracks the reservations and the
    // fragmentation peak stays exactly 0.
    kv.policy = KvPolicy::Reserve;
    KvBlockManager reserve(kv);
    const KvCharge a = reserve.admissionCharge(100.0, 2.0, 7);
    const KvCharge b = reserve.admissionCharge(60.0, 2.0, 7);
    reserve.add(a.allocated, a.needed);
    reserve.add(b.allocated, b.needed);
    reserve.remove(a.allocated, a.needed);
    EXPECT_DOUBLE_EQ(reserve.peakUsedBytes(), 160.0);
    EXPECT_EQ(reserve.peakFragmentationBytes(), 0.0);
    EXPECT_DOUBLE_EQ(reserve.pressure().freeBytes, 196.0);
    reserve.remove(b.allocated, b.needed);
    reserve.clearIdleResidual();
    EXPECT_EQ(reserve.usedBytes(), 0.0);
}

TEST(Paging, MatchesReserveWhenCapacityNeverBinds)
{
    Registry registry;
    auto accel = registry.make("mcbp");
    const auto trace = denseTrace();

    ServingOptions reserve;
    reserve.maxBatch = 8;
    reserve.kvPolicy = KvPolicy::Reserve;
    const ServingReport a =
        ServingSimulator(*accel, reserve).simulate(trace);

    // A budget comfortably above the reserve peak (and its watermark)
    // never binds: paged admission decisions — and therefore every
    // clock and every joule — are bit-identical to reservation. Only
    // the kv* fields differ (block-rounded residency).
    ServingOptions paged = reserve;
    paged.kvPolicy = KvPolicy::Paged;
    paged.kvCapacityBytes = a.kvPeakBytes * 2.0;
    const ServingReport b =
        ServingSimulator(*accel, paged).simulate(trace);

    EXPECT_EQ(a.kvPolicy, "reserve");
    EXPECT_EQ(b.kvPolicy, "paged");
    EXPECT_EQ(b.preemptions, 0u);
    EXPECT_EQ(b.recomputedTokens, 0u);
    expectReportsIdentical(
        [&] { // mask the kv fields both sides, compare the rest.
            ServingReport r = a;
            r.kvPeakBytes = 0.0;
            r.kvBlockUtilization = 0.0;
            return r;
        }(),
        [&] {
            ServingReport r = b;
            r.kvPeakBytes = 0.0;
            r.kvBlockUtilization = 0.0;
            return r;
        }());
    // The paged peak tracks current block-rounded residency — which
    // grows token by token — so it sits at or below the reserve
    // peak's full-footprint reservations plus one block per request.
    EXPECT_GT(b.kvPeakBytes, 0.0);
    EXPECT_GT(b.kvBlockUtilization, 0.0);
    EXPECT_LE(b.kvBlockUtilization, 1.0);
}

TEST(Paging, ReservePolicyIgnoresPagingKnobs)
{
    // The pre-paging policy must reproduce its reports exactly no
    // matter how the paging knobs are set: block size, watermark and
    // aging default must not leak into the reserve path.
    Registry registry;
    auto accel = registry.make("mcbp");
    const auto trace = denseTrace(16);

    ServingOptions a;
    a.maxBatch = 8;
    a.kvCapacityBytes = 6e9;
    a.kvPolicy = KvPolicy::Reserve;
    a.kvBlockTokens = 16;
    a.kvLowWatermark = 0.05;

    ServingOptions b = a;
    b.kvBlockTokens = 1024;
    b.kvLowWatermark = 0.4;

    const ServingReport ra = ServingSimulator(*accel, a).simulate(trace);
    const ServingReport rb = ServingSimulator(*accel, b).simulate(trace);
    expectReportsIdentical(ra, rb);
    EXPECT_EQ(ra.kvPeakBytes, rb.kvPeakBytes);
    EXPECT_EQ(ra.preemptions, 0u);
    EXPECT_EQ(ra.kvBlockUtilization, 0.0);
    EXPECT_EQ(ra.kvFragmentationPeakBytes, 0.0);
    EXPECT_GT(ra.kvPeakBytes, 0.0);
}

TEST(Paging, AdmitsMoreThanReservationUnderPressure)
{
    Registry registry;
    auto accel = registry.make("mcbp");
    const auto trace = denseTrace(24);
    const double horizon = lastArrival(trace);

    ServingOptions free_opts;
    free_opts.maxBatch = 16;
    const ServingReport free_run =
        ServingSimulator(*accel, free_opts).simulate(trace);
    ASSERT_GT(free_run.kvPeakBytes, 0.0);

    // A budget at a quarter of the unbounded peak forces the policies
    // apart: reservation blocks on full footprints, paging admits
    // against current occupancy and preempts when growth overflows.
    ServingOptions reserve = free_opts;
    reserve.kvCapacityBytes = free_run.kvPeakBytes / 4.0;
    ServingOptions paged = reserve;
    paged.kvPolicy = KvPolicy::Paged;

    const ServingReport r =
        ServingSimulator(*accel, reserve).simulate(trace);
    const ServingReport p =
        ServingSimulator(*accel, paged).simulate(trace);

    expectConserves(r, trace.size());
    expectConserves(p, trace.size());

    // Both respect the budget; paging buys earlier admission.
    EXPECT_LE(r.kvPeakBytes, reserve.kvCapacityBytes);
    EXPECT_LE(p.kvPeakBytes, paged.kvCapacityBytes);
    EXPECT_GE(admittedBy(p, horizon), admittedBy(r, horizon));
    EXPECT_GT(admittedBy(p, horizon), 0u);
    // The pressure is real: paging had to preempt and recompute.
    EXPECT_GT(p.preemptions, 0u);
    EXPECT_GT(p.recomputedTokens, 0u);
    EXPECT_GT(p.kvBlockUtilization, 0.0);
    EXPECT_LE(p.kvBlockUtilization, 1.0);
    EXPECT_GE(p.kvFragmentationPeakBytes, 0.0);
    // Recompute work is billed: total energy exceeds the serial sum.
    double joules = 0.0;
    for (const RequestMetrics &m : p.requests)
        joules += m.joules;
    EXPECT_GT(joules, 0.0);
}

TEST(Paging, PreemptionIsDeterministicAcrossProfileThreads)
{
    const auto trace = denseTrace(20, "Llama7B", 17);

    auto run = [&](std::size_t threads) {
        // A fresh registry per run: each owns a cold profile cache,
        // so the second run genuinely re-profiles at its own thread
        // count — proving the report never depends on profiling
        // parallelism, preemption re-pricing included.
        Registry registry;
        auto accel = registry.make("mcbp");
        ServingOptions opts;
        opts.maxBatch = 16;
        opts.kvPolicy = KvPolicy::Paged;
        opts.kvCapacityBytes = 2e9; // tight: preemptions happen.
        opts.profileThreads = threads;
        return ServingSimulator(*accel, opts).simulate(trace);
    };
    const ServingReport a = run(1);
    const ServingReport b = run(8);
    ASSERT_GT(a.preemptions, 0u);
    expectReportsIdentical(a, b);
}

TEST(Paging, ZeroDecodeRequestsChargeNoKv)
{
    Registry registry;
    auto accel = registry.make("mcbp");
    auto trace = denseTrace(4);
    trace[1].decodeLen = 0; // pure-prefill (classification) request.

    for (KvPolicy policy : allKvPolicies()) {
        ServingOptions opts;
        opts.maxBatch = 4;
        opts.kvPolicy = policy;
        opts.kvCapacityBytes = 6e9;
        const ServingReport r =
            ServingSimulator(*accel, opts).simulate(trace);
        expectConserves(r, trace.size());
        for (const RequestMetrics &m : r.requests) {
            if (m.id == 1) {
                EXPECT_EQ(m.decodeTokens, 0u);
                EXPECT_EQ(m.kvBytes, 0.0) << toString(policy);
            } else {
                EXPECT_GT(m.kvBytes, 0.0) << toString(policy);
            }
        }
    }

    // An all-prefill trace fits any budget — even one byte — because
    // nothing is ever retained (the pre-fix accounting charged the
    // prompt and made this fatal).
    for (auto &req : trace)
        req.decodeLen = 0;
    ServingOptions tiny;
    tiny.kvCapacityBytes = 1.0;
    const ServingReport r =
        ServingSimulator(*accel, tiny).simulate(trace);
    expectConserves(r, trace.size());
    EXPECT_EQ(r.kvPeakBytes, 0.0);
}

TEST(Paging, NegativeCapacityIsUnboundedEverywhere)
{
    // The sentinel is uniform: <= 0 means unbounded in the serving
    // path and through a cluster accelerator alike, for both KV
    // policies.
    Registry registry;
    const auto trace = denseTrace(8);
    for (const char *spec : {"mcbp", "mcbp:tp=2"}) {
        auto accel = registry.make(spec);
        for (KvPolicy policy : allKvPolicies()) {
            ServingOptions zero;
            zero.maxBatch = 8;
            zero.kvPolicy = policy;
            zero.kvCapacityBytes = 0.0;
            ServingOptions negative = zero;
            negative.kvCapacityBytes = -1e9;
            const ServingReport a =
                ServingSimulator(*accel, zero).simulate(trace);
            const ServingReport b =
                ServingSimulator(*accel, negative).simulate(trace);
            expectReportsIdentical(a, b);
            EXPECT_EQ(a.kvUtilization, 0.0);
            EXPECT_EQ(b.kvUtilization, 0.0);
            EXPECT_EQ(a.preemptions, 0u);
        }
    }
}

TEST(Paging, PagedServingOnClusterRespectsBudget)
{
    Registry registry;
    auto cluster = registry.make("mcbp:tp=2");
    EXPECT_EQ(cluster->capabilities().kvShards, 2u);
    const auto trace = denseTrace(12);

    const ServingReport free_run =
        ServingSimulator(*cluster, {8}).simulate(trace);
    ServingOptions opts;
    opts.maxBatch = 8;
    opts.kvPolicy = KvPolicy::Paged;
    opts.kvCapacityBytes = free_run.kvPeakBytes / 3.0;
    const ServingReport r =
        ServingSimulator(*cluster, opts).simulate(trace);
    expectConserves(r, trace.size());
    EXPECT_LE(r.kvPeakBytes, opts.kvCapacityBytes);
    EXPECT_GT(r.kvPeakBytes, 0.0);
}

TEST(Paging, EmptyTraceYieldsZeroedReport)
{
    Registry registry;
    auto accel = registry.make("mcbp");
    for (KvPolicy policy : allKvPolicies()) {
        ServingOptions opts;
        opts.kvPolicy = policy;
        const ServingReport r =
            ServingSimulator(*accel, opts).simulate({});
        EXPECT_EQ(r.accelerator, accel->name());
        EXPECT_EQ(r.scheduler, "fifo");
        EXPECT_EQ(r.kvPolicy, toString(policy));
        EXPECT_TRUE(r.requests.empty());
        EXPECT_EQ(r.makespanSeconds, 0.0);
        EXPECT_EQ(r.p50LatencySeconds, 0.0);
        EXPECT_EQ(r.p99LatencySeconds, 0.0);
        EXPECT_EQ(r.p99QueueSeconds, 0.0);
        EXPECT_EQ(r.tokensPerSecond, 0.0);
        EXPECT_EQ(r.joulesPerToken, 0.0);
        EXPECT_EQ(r.preemptions, 0u);
    }
}

TEST(Schedulers, AgingBoundsLongPromptStarvation)
{
    // A long-prompt minority inside a sustained short-prompt flood:
    // pure SJF (agingWeight 0) starves the longs until the flood
    // ends; the aged key admits them once they have waited their own
    // extra prefill cost, bounding their queue tail.
    Registry registry;
    auto accel = registry.make("mcbp");
    const model::LlmConfig &m = model::findModel("Llama7B");

    model::Request probe{0, 0.0, "Llama7B", "Dolly", 64, 64};
    const double short_service =
        accel->run(m, probe.workload()).seconds();

    std::vector<model::Request> trace;
    const std::size_t shorts = 40;
    // Shorts arrive faster than they are served: the queue never
    // drains until the flood ends.
    const double interval = 0.5 * short_service;
    for (std::size_t i = 0; i < shorts; ++i)
        trace.push_back({i, static_cast<double>(i) * interval,
                         "Llama7B", "Dolly", 64, 64});
    for (std::size_t i = 0; i < 3; ++i)
        trace.push_back({shorts + i, 0.0, "Llama7B", "Dolly", 2048, 8});

    auto run = [&](double agingWeight) {
        ServingOptions opts;
        opts.maxBatch = 1; // serialize admissions: pure queueing.
        opts.policy = SchedulerPolicy::ShortestPromptFirst;
        opts.sjfAgingWeight = agingWeight;
        return ServingSimulator(*accel, opts).simulate(trace);
    };
    const ServingReport aged = run(1.0);   // the default
    const ServingReport pure = run(0.0);   // the pre-fix behaviour
    expectConserves(aged, trace.size());
    expectConserves(pure, trace.size());

    auto maxLongQueue = [&](const ServingReport &r) {
        double worst = 0.0;
        for (const RequestMetrics &mx : r.requests)
            if (mx.id >= shorts)
                worst = std::max(worst, mx.queueSeconds());
        return worst;
    };
    const double aged_wait = maxLongQueue(aged);
    const double pure_wait = maxLongQueue(pure);
    // Pure SJF holds every long until the flood is over...
    EXPECT_GT(pure_wait, 0.8 * static_cast<double>(shorts) * interval);
    // ...while aging bounds the longs' tail well inside the flood.
    EXPECT_LT(aged_wait, 0.5 * pure_wait);
}

} // namespace
} // namespace mcbp::engine
