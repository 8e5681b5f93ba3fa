/**
 * @file
 * Prepared-cost contract (engine::Accelerator::prepare), the serving
 * engine's first-costing path:
 *  - on every design the registry knows, plus composed (pp x tp, dp)
 *    and degraded topologies, prepare(model, task)->price(shape)
 *    equals run(model, shape) in every phase field, clock and
 *    processor count, including prefill-only shapes;
 *  - ServingSimulator::costTrace over a trace that spans several
 *    models, tasks and context buckets prices every request exactly as
 *    its own batch-1 run does (a table keyed too coarsely would hand
 *    one bucket's profiles to another);
 *  - first costing never enters the plan cache; only the paged
 *    recompute re-pricer does.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/profile_cache.hpp"
#include "engine/health.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"
#include "model/llm_config.hpp"
#include "model/request.hpp"
#include "model/workload.hpp"

namespace mcbp::engine {
namespace {

/** Exact equality, by bit pattern (so -0.0 != 0.0 and NaN == NaN). */
#define EXPECT_BITS(a, b)                                                   \
    EXPECT_EQ(std::bit_cast<std::uint64_t>(static_cast<double>(a)),         \
              std::bit_cast<std::uint64_t>(static_cast<double>(b)))         \
        << #a << " = " << (a) << " vs " << (b)

void
expectPhaseIdentical(const accel::PhaseMetrics &a,
                     const accel::PhaseMetrics &b)
{
    EXPECT_BITS(a.cycles, b.cycles);
    EXPECT_BITS(a.energy.computePj, b.energy.computePj);
    EXPECT_BITS(a.energy.bitReorderPj, b.energy.bitReorderPj);
    EXPECT_BITS(a.energy.camPj, b.energy.camPj);
    EXPECT_BITS(a.energy.codecPj, b.energy.codecPj);
    EXPECT_BITS(a.energy.bgppPj, b.energy.bgppPj);
    EXPECT_BITS(a.energy.sramPj, b.energy.sramPj);
    EXPECT_BITS(a.energy.dramPj, b.energy.dramPj);
    EXPECT_BITS(a.energy.sfuPj, b.energy.sfuPj);
    EXPECT_BITS(a.energy.interconnectPj, b.energy.interconnectPj);
    EXPECT_BITS(a.traffic.weightBytes, b.traffic.weightBytes);
    EXPECT_BITS(a.traffic.kvBytes, b.traffic.kvBytes);
    EXPECT_BITS(a.traffic.predictionBytes, b.traffic.predictionBytes);
    EXPECT_BITS(a.traffic.actBytes, b.traffic.actBytes);
    EXPECT_BITS(a.denseMacs, b.denseMacs);
    EXPECT_BITS(a.executedAdds, b.executedAdds);
    EXPECT_BITS(a.gemmCycles, b.gemmCycles);
    EXPECT_BITS(a.weightLoadCycles, b.weightLoadCycles);
    EXPECT_BITS(a.kvLoadCycles, b.kvLoadCycles);
    EXPECT_BITS(a.otherCycles, b.otherCycles);
    EXPECT_BITS(a.weightStreamCycles, b.weightStreamCycles);
    EXPECT_BITS(a.linearWorkCycles, b.linearWorkCycles);
    EXPECT_EQ(a.memorySerialized, b.memorySerialized);
    EXPECT_BITS(a.fixedStepCycles, b.fixedStepCycles);
}

void
expectPricesIdentical(const TopologyPrice &a, const TopologyPrice &b)
{
    EXPECT_BITS(a.prefillCycles, b.prefillCycles);
    EXPECT_BITS(a.basePrefillCycles, b.basePrefillCycles);
    EXPECT_BITS(a.basePrefillJoules, b.basePrefillJoules);
    EXPECT_BITS(a.pendingPrefillJoules, b.pendingPrefillJoules);
    EXPECT_BITS(a.weightCyclesPerToken, b.weightCyclesPerToken);
    EXPECT_BITS(a.linearCyclesPerToken, b.linearCyclesPerToken);
    EXPECT_BITS(a.otherCyclesPerToken, b.otherCyclesPerToken);
    EXPECT_BITS(a.fixedCyclesPerToken, b.fixedCyclesPerToken);
    EXPECT_BITS(a.weightJoulesPerToken, b.weightJoulesPerToken);
    EXPECT_BITS(a.otherJoulesPerToken, b.otherJoulesPerToken);
    EXPECT_EQ(a.memorySerialized, b.memorySerialized);
    EXPECT_EQ(a.stages, b.stages);
}

const std::vector<std::string> kModels = {"OPT1B3", "Llama7B"};
const std::vector<std::string> kTasks = {"Dolly", "MBPP", "Cola"};

/** Prompt lengths grouped by context bucket (64, 128 and 512). */
const std::vector<std::vector<std::size_t>> kBucketPrompts = {
    {17, 40, 64}, {65, 100, 128}, {257, 300, 512}};

/** Every design under test: the registry's aliases plus composed
 *  (pp x tp, dp) and degraded topologies. */
std::vector<std::string>
designs()
{
    std::vector<std::string> specs = Registry::knownSpecs();
    specs.push_back("mcbp:pp=2,tp=2");
    specs.push_back("mcbp:dp=2");
    specs.push_back(degradedSpec("mcbp:pp=2,tp=2"));
    return specs;
}

/**
 * A jittered trace over kModels x kTasks whose prompts span the three
 * buckets of kBucketPrompts (and whose decode lengths include 0), with
 * the buckets interleaved so one (model, task) revisits every bucket.
 */
std::vector<model::Request>
mixedTrace(std::size_t n)
{
    std::vector<model::Request> trace;
    for (std::size_t i = 0; i < n; ++i) {
        model::Request r;
        r.id = i;
        r.arrivalSeconds = 0.01 * static_cast<double>(i);
        r.model = kModels[i % kModels.size()];
        r.task = kTasks[(i / kModels.size()) % kTasks.size()];
        const std::vector<std::size_t> &bucket =
            kBucketPrompts[(i * 7 / 5) % kBucketPrompts.size()];
        const std::size_t lo = bucket.front();
        r.promptLen = lo + (i * 37) % (bucket.back() - lo + 1);
        r.decodeLen = i % 5 == 0 ? 0 : (i * 13) % 29 + 1;
        trace.push_back(r);
    }
    return trace;
}

TEST(PreparedCost, PriceEqualsRunOnEveryDesign)
{
    Registry registry;
    for (const std::string &spec : designs()) {
        SCOPED_TRACE(spec);
        const auto accel = registry.make(spec);
        for (const std::string &name : kModels) {
            const model::LlmConfig &m = model::findModel(name);
            for (const std::string &taskName : kTasks) {
                for (const std::vector<std::size_t> &prompts :
                     kBucketPrompts) {
                    model::Workload task = model::withLengths(
                        model::findTask(taskName), prompts[1], 9);
                    task.batch = 1;
                    const auto prepared = accel->prepare(m, task);
                    for (std::size_t prompt : prompts)
                        for (std::size_t decode : {0, 1, 33}) {
                            SCOPED_TRACE(name + "/" + taskName + " " +
                                         std::to_string(prompt) + "+" +
                                         std::to_string(decode));
                            const accel::RunCost got =
                                prepared->price(prompt, decode);
                            const accel::RunMetrics want = accel->run(
                                m, model::withLengths(task, prompt, decode));
                            expectPhaseIdentical(got.prefill, want.prefill);
                            expectPhaseIdentical(got.decode, want.decode);
                            EXPECT_BITS(got.clockGhz, want.clockGhz);
                            EXPECT_EQ(got.processors, want.processors);
                        }
                }
            }
        }
    }
}

TEST(PreparedCost, PricingOutsideThePreparedBucketIsRejected)
{
    Registry registry;
    const auto accel = registry.make("mcbp");
    const model::LlmConfig &m = model::findModel("OPT1B3");
    const auto prepared = accel->prepare(
        m, model::withLengths(model::findTask("Cola"), 100, 4));
    EXPECT_NO_THROW((void)prepared->price(128, 4));
    EXPECT_THROW((void)prepared->price(129, 4), std::runtime_error);
    EXPECT_THROW((void)prepared->price(64, 4), std::runtime_error);
}

TEST(PreparedCost, CostTraceMatchesEachRequestsOwnRun)
{
    const std::vector<model::Request> trace = mixedTrace(60);
    Registry registry;
    for (const char *spec : {"mcbp", "mcbp:pp=2,tp=2"}) {
        SCOPED_TRACE(spec);
        const auto accel = registry.make(spec);
        for (std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
            SCOPED_TRACE(threads);
            ServingOptions opts;
            opts.costingThreads = threads;
            const ServingSimulator sim(*accel, opts);
            const ServingSimulator::CostedTrace costed =
                sim.costTrace(trace);
            // First costing builds no plan and caches nothing.
            EXPECT_EQ(sim.planCache()->computeCalls(), 0u);
            EXPECT_EQ(sim.planCache()->size(), 0u);
            ASSERT_EQ(costed.costs.size(), trace.size());

            double serialSeconds = 0.0;
            double serialJoules = 0.0;
            for (std::size_t i = 0; i < trace.size(); ++i) {
                SCOPED_TRACE(i);
                const model::Request &req = trace[i];
                const model::LlmConfig &m = model::findModel(req.model);
                const accel::RunMetrics rm = accel->run(m, req.workload());
                serialSeconds += rm.seconds();
                serialJoules += rm.joules();
                const CostedRequest &c = costed.costs[i];
                EXPECT_EQ(c.req, &req);
                EXPECT_EQ(c.model, &m);
                EXPECT_EQ(c.recomputeShape.name, req.task);
                EXPECT_EQ(c.recomputeShape.promptLen, req.promptLen);
                EXPECT_EQ(c.recomputeShape.decodeLen, 0u);
                EXPECT_EQ(c.recomputeShape.batch, 1u);
                EXPECT_BITS(c.arrivalCycles,
                            req.arrivalSeconds * rm.clockGhz * 1e9);
                const TopologyPrice &p = c.price[kHealthy];
                EXPECT_BITS(p.prefillCycles, rm.prefill.cycles);
                EXPECT_BITS(p.basePrefillJoules,
                            rm.prefill.energy.totalPj() * 1e-12 *
                                static_cast<double>(rm.processors));
                if (req.decodeLen > 0) {
                    const double steps = static_cast<double>(req.decodeLen);
                    EXPECT_BITS(p.weightCyclesPerToken,
                                rm.decode.weightStreamCycles / steps);
                    EXPECT_BITS(p.linearCyclesPerToken,
                                rm.decode.linearWorkCycles / steps);
                    EXPECT_BITS(p.fixedCyclesPerToken,
                                rm.decode.fixedStepCycles / steps);
                    EXPECT_EQ(p.memorySerialized,
                              rm.decode.memorySerialized);
                } else {
                    EXPECT_BITS(p.weightCyclesPerToken, 0.0);
                    EXPECT_BITS(p.otherJoulesPerToken, 0.0);
                }
                EXPECT_EQ(c.remainingTokens, req.decodeLen);
                EXPECT_BITS(c.kvBytesPerToken,
                            static_cast<double>(m.kvBytesPerToken()));

                // Alone in its own trace, the request prepares its own
                // cost: every field of its price must agree.
                const ServingSimulator::CostedTrace alone =
                    ServingSimulator(*accel, opts).costTrace({req});
                expectPricesIdentical(p, alone.costs[0].price[kHealthy]);
                EXPECT_BITS(c.kvBytes, alone.costs[0].kvBytes);
            }
            EXPECT_BITS(costed.serialSeconds, serialSeconds);
            EXPECT_BITS(costed.serialJoules, serialJoules);
            EXPECT_BITS(costed.clockGhz, accel->capabilities().clockGhz);
        }
    }
}

TEST(PreparedCost, OnlyTheRecomputeRepricerFillsThePlanCache)
{
    Registry registry;
    const auto accel = registry.make("mcbp");
    model::TraceConfig tc;
    tc.model = "OPT1B3";
    tc.task = "MBPP";
    tc.requests = 24;
    tc.arrivalsPerSecond = 50.0;
    tc.seed = 23;
    const std::vector<model::Request> trace = model::synthesizeTrace(tc);

    ServingOptions opts;
    opts.maxBatch = 16;
    opts.kvPolicy = KvPolicy::Paged;
    const ServingReport unbounded =
        ServingSimulator(*accel, opts).simulate(trace);
    EXPECT_EQ(unbounded.preemptions, 0u);

    // A pool a quarter of the unbounded peak forces preemptions, each
    // re-priced through the plan cache.
    opts.kvCapacityBytes = unbounded.kvPeakBytes / 4.0;
    const ServingSimulator sim(*accel, opts);
    (void)sim.costTrace(trace);
    EXPECT_EQ(sim.planCache()->computeCalls(), 0u);
    const ServingReport paged = sim.simulate(trace);
    EXPECT_GT(paged.preemptions, 0u);
    EXPECT_GT(sim.planCache()->computeCalls(), 0u);
}

} // namespace
} // namespace mcbp::engine
