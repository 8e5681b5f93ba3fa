/**
 * @file
 * PlanCache invariants (the costing fast path's correctness contract;
 * the singleflight store itself is tested in test_singleflight.cpp):
 *  - keying: the interned identity, the model and every workload
 *    shape field separate entries, exactly — two accelerators (or two
 *    shapes) can never alias a cost;
 *  - the serving costing fan-out is bit-identical at every thread
 *    count (index-ordered join over cached metrics);
 *  - a second simulate() on the same simulator recomputes nothing
 *    (full cache reuse, including the paged recompute re-pricer).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "accel/plan_cache.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"
#include "model/llm_config.hpp"
#include "model/request.hpp"

namespace mcbp::accel {
namespace {

/** A distinguishable metric (only cycles matter to these tests). */
RunMetrics
metric(double cycles)
{
    RunMetrics rm;
    rm.prefill.cycles = cycles;
    return rm;
}

TEST(PlanCache, KeySeparatesIdentityModelAndShape)
{
    PlanCache cache;
    const PlanCache::Identity a = cache.intern("mcbp", "config A");
    // Equal name, different configSummary: a distinct identity.
    const PlanCache::Identity b = cache.intern("mcbp", "config B");
    const PlanCache::Identity c = cache.intern("bitwave", "config A");
    EXPECT_EQ(cache.intern("mcbp", "config A").id, a.id);
    EXPECT_NE(a.id, b.id);
    EXPECT_NE(a.id, c.id);
    EXPECT_NE(b.id, c.id);

    const model::LlmConfig &opt = model::findModel("OPT1B3");
    const model::LlmConfig &llama = model::findModel("Llama7B");
    const model::Workload base = model::findTask("Dolly");

    double next = 0.0;
    auto cycles = [&](PlanCache::Identity id, const model::LlmConfig &m,
                      const model::Workload &w) {
        next += 1.0;
        return cache.metrics(id, m, w, [v = next] { return metric(v); })
            .prefill.cycles;
    };
    EXPECT_EQ(cycles(a, opt, base), 1.0);
    // Same key -> cached: the second compute (value 2) never runs.
    EXPECT_EQ(cycles(a, opt, base), 1.0);
    // Identity, model and every shape field separate entries.
    EXPECT_EQ(cycles(b, opt, base), 3.0);
    EXPECT_EQ(cycles(c, opt, base), 4.0);
    EXPECT_EQ(cycles(a, llama, base), 5.0);
    model::Workload w = base;
    w.promptLen += 1;
    EXPECT_EQ(cycles(a, opt, w), 6.0);
    w = base;
    w.decodeLen = 0;
    EXPECT_EQ(cycles(a, opt, w), 7.0);
    w = base;
    w.batch += 1;
    EXPECT_EQ(cycles(a, opt, w), 8.0);
    w = base;
    w.kind = model::TaskKind::Generation;
    EXPECT_EQ(cycles(a, opt, w), 9.0);
    w = base;
    // The adjacent double: concentrations compare exactly.
    w.attentionConcentration =
        std::nextafter(base.attentionConcentration, 1.0);
    EXPECT_EQ(cycles(a, opt, w), 10.0);
    w = base;
    w.name = "Dolly-copy";
    EXPECT_EQ(cycles(a, opt, w), 11.0);
    EXPECT_EQ(cache.computeCalls(), 10u);
    EXPECT_EQ(cache.size(), 10u);
}

std::vector<model::Request>
trace(std::size_t n, const char *task = "Dolly")
{
    model::TraceConfig tc;
    tc.model = "OPT1B3";
    tc.task = task;
    tc.requests = n;
    tc.arrivalsPerSecond = 50.0;
    tc.seed = 23;
    return model::synthesizeTrace(tc);
}

void
expectCostsBitIdentical(const engine::ServingSimulator::CostedTrace &a,
                        const engine::ServingSimulator::CostedTrace &b)
{
    EXPECT_EQ(a.clockGhz, b.clockGhz);
    EXPECT_EQ(a.serialSeconds, b.serialSeconds);
    EXPECT_EQ(a.serialJoules, b.serialJoules);
    ASSERT_EQ(a.costs.size(), b.costs.size());
    for (std::size_t i = 0; i < a.costs.size(); ++i) {
        const engine::CostedRequest &x = a.costs[i];
        const engine::CostedRequest &y = b.costs[i];
        EXPECT_EQ(x.req->id, y.req->id);
        EXPECT_EQ(x.arrivalCycles, y.arrivalCycles);
        const engine::TopologyPrice &xp = x.price[engine::kHealthy];
        const engine::TopologyPrice &yp = y.price[engine::kHealthy];
        EXPECT_EQ(xp.prefillCycles, yp.prefillCycles);
        EXPECT_EQ(xp.pendingPrefillJoules, yp.pendingPrefillJoules);
        EXPECT_EQ(xp.weightCyclesPerToken, yp.weightCyclesPerToken);
        EXPECT_EQ(xp.linearCyclesPerToken, yp.linearCyclesPerToken);
        EXPECT_EQ(xp.otherCyclesPerToken, yp.otherCyclesPerToken);
        EXPECT_EQ(xp.fixedCyclesPerToken, yp.fixedCyclesPerToken);
        EXPECT_EQ(xp.weightJoulesPerToken, yp.weightJoulesPerToken);
        EXPECT_EQ(xp.otherJoulesPerToken, yp.otherJoulesPerToken);
        EXPECT_EQ(x.kvBytes, y.kvBytes);
        EXPECT_EQ(x.kvBytesPerToken, y.kvBytesPerToken);
        EXPECT_EQ(x.remainingTokens, y.remainingTokens);
    }
}

TEST(PlanCache, CostingBitIdenticalAcrossThreadCounts)
{
    engine::Registry registry;
    auto accel = registry.make("mcbp");
    const auto reqs = trace(48);

    engine::ServingOptions serial;
    serial.costingThreads = 1;
    const auto a = engine::ServingSimulator(*accel, serial).costTrace(reqs);

    for (std::size_t threads : {std::size_t{0}, std::size_t{8}}) {
        engine::ServingOptions opts;
        opts.costingThreads = threads;
        engine::ServingSimulator sim(*accel, opts);
        expectCostsBitIdentical(a, sim.costTrace(reqs));
        // Distinct shapes priced once each; repeats were cache hits.
        EXPECT_EQ(sim.planCache()->computeCalls(),
                  sim.planCache()->size());
        EXPECT_LE(sim.planCache()->size(), reqs.size());
    }
}

TEST(PlanCache, SecondSimulateRecomputesNothing)
{
    engine::Registry registry;
    auto accel = registry.make("mcbp");
    const auto reqs = trace(24, "MBPP");

    // A tight paged pool over a decode-heavy trace forces
    // preemptions, so the recompute re-pricer also runs through the
    // cache.
    engine::ServingOptions opts;
    opts.maxBatch = 16;
    opts.kvPolicy = engine::KvPolicy::Paged;
    engine::ServingSimulator probe(*accel, opts);
    opts.kvCapacityBytes = probe.simulate(reqs).kvPeakBytes / 4.0;
    engine::ServingSimulator sim(*accel, opts);

    const engine::ServingReport first = sim.simulate(reqs);
    EXPECT_GT(first.preemptions, 0u);
    const std::uint64_t warm = sim.planCache()->computeCalls();
    EXPECT_GT(warm, 0u);

    const engine::ServingReport second = sim.simulate(reqs);
    EXPECT_EQ(sim.planCache()->computeCalls(), warm);
    EXPECT_EQ(first.busySeconds, second.busySeconds);
    EXPECT_EQ(first.joulesPerToken, second.joulesPerToken);
    EXPECT_EQ(first.preemptions, second.preemptions);
}

} // namespace
} // namespace mcbp::accel
