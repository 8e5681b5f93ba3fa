/**
 * @file
 * Admission cost of the event core (scheduler.hpp "AdmissionView"):
 *  - the view builds an entry on first access, memoizes it for the
 *    rest of the consult, forgets it at the next reset(), and its
 *    deferral walk stops at the first admissible entry;
 *  - each built-in policy reads only what it needs (FIFO the head,
 *    skip-ahead up to the first admissible entry, SJF everything);
 *  - under overload (2x the chip's capacity, so the queue grows with
 *    the trace) FIFO and skip-ahead build at most two candidates per
 *    admission at 2k and at 8k requests, i.e. admission stays linear
 *    in the trace instead of in trace x queue depth.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "engine/registry.hpp"
#include "engine/scheduler.hpp"
#include "engine/serving.hpp"
#include "model/request.hpp"

namespace mcbp::engine {
namespace {

/** A view over @p admissible whose builds are logged in @p calls. */
AdmissionView
loggingView(const std::vector<bool> &admissible,
            std::vector<std::size_t> &calls)
{
    return AdmissionView([&admissible, &calls](std::size_t i) {
        calls.push_back(i);
        AdmissionCandidate c;
        c.admissible = admissible[i];
        c.prefillCycles = static_cast<double>(100 - i);
        return c;
    });
}

TEST(AdmissionView, BuildsOnFirstAccessAndMemoizesPerConsult)
{
    const std::vector<bool> admissible = {false, false, true, true};
    std::vector<std::size_t> calls;
    AdmissionView view = loggingView(admissible, calls);
    view.reset(admissible.size());
    EXPECT_EQ(view.size(), 4u);
    EXPECT_EQ(view.built(), 0u);

    EXPECT_FALSE(view[1].admissible);
    EXPECT_FALSE(view[1].admissible); // Memoized: no second build.
    EXPECT_EQ(calls, (std::vector<std::size_t>{1}));

    // The deferral walk reuses entry 1 and stops at entry 2.
    EXPECT_TRUE(view.anyAdmissible());
    EXPECT_EQ(calls, (std::vector<std::size_t>{1, 0, 2}));
    EXPECT_EQ(view.built(), 3u);

    // A new consult forgets every entry; built() keeps counting.
    view.reset(2);
    EXPECT_EQ(view.size(), 2u);
    EXPECT_FALSE(view.anyAdmissible());
    EXPECT_EQ(calls, (std::vector<std::size_t>{1, 0, 2, 0, 1}));
    EXPECT_EQ(view.built(), 5u);
    EXPECT_THROW((void)view[2], std::logic_error);

    view.reset(0);
    EXPECT_FALSE(view.anyAdmissible());
    EXPECT_EQ(view.built(), 5u);
}

TEST(AdmissionView, EachPolicyReadsOnlyWhatItNeeds)
{
    const std::vector<bool> admissible = {false, false, true, false, true};
    struct Case
    {
        SchedulerPolicy policy;
        std::size_t pick;
        std::size_t built;
    };
    // SJF keys on prefillCycles = 100 - i, so the last admissible
    // entry wins after a walk over the whole queue.
    for (const Case &c : {Case{SchedulerPolicy::Fifo, Scheduler::npos, 1},
                          Case{SchedulerPolicy::SkipAhead, 2, 3},
                          Case{SchedulerPolicy::ShortestPromptFirst, 4,
                               5}}) {
        std::vector<std::size_t> calls;
        AdmissionView view = loggingView(admissible, calls);
        view.reset(admissible.size());
        const auto scheduler = makeScheduler(c.policy);
        SCOPED_TRACE(toString(c.policy));
        EXPECT_EQ(scheduler->pick(view, KvPressure{}), c.pick);
        EXPECT_EQ(view.built(), c.built);
    }
}

/** OPT1B3/Dolly on one chip at 0.8 req/s, about twice what it serves:
 *  the waiting queue grows for the whole trace. */
std::vector<model::Request>
overloadTrace(std::size_t n)
{
    model::TraceConfig tc;
    tc.model = "OPT1B3";
    tc.task = "Dolly";
    tc.requests = n;
    tc.arrivalsPerSecond = 0.8;
    tc.seed = 1;
    return model::synthesizeTrace(tc);
}

/** Deepest the waiting queue got (arrived but not yet admitted). */
std::size_t
peakQueueDepth(const ServingReport &r)
{
    std::vector<std::pair<double, int>> events;
    for (const RequestMetrics &m : r.requests) {
        events.emplace_back(m.arrivalSeconds, 1);
        events.emplace_back(m.admissionSeconds, -1);
    }
    // An admission at an arrival's instant leaves first.
    std::sort(events.begin(), events.end());
    long depth = 0;
    long peak = 0;
    for (const auto &e : events) {
        depth += e.second;
        peak = std::max(peak, depth);
    }
    return static_cast<std::size_t>(peak);
}

TEST(AdmissionComplexity, FifoAndSkipAheadStayLinearUnderOverload)
{
    Registry registry;
    auto accel = registry.make("mcbp");
    for (SchedulerPolicy policy :
         {SchedulerPolicy::Fifo, SchedulerPolicy::SkipAhead}) {
        std::size_t last_peak = 0;
        for (std::size_t n : {std::size_t{2000}, std::size_t{8000}}) {
            ServingOptions opts;
            opts.policy = policy;
            opts.kvCapacityBytes = 0.0; // Unbounded reserve.
            const ServingReport r =
                ServingSimulator(*accel, opts).simulate(overloadTrace(n));
            SCOPED_TRACE(toString(policy) + " / " + std::to_string(n));
            ASSERT_EQ(r.requests.size(), n);
            const std::size_t admissions = r.admissionOrder.size();
            ASSERT_EQ(admissions, n);
            // The queue really is deep, and deeper with the trace...
            const std::size_t peak = peakQueueDepth(r);
            EXPECT_GT(peak, n / 4);
            EXPECT_GT(peak, 2 * last_peak);
            last_peak = peak;
            // ...yet admission reads at most two entries per decision.
            EXPECT_LE(r.admissionCandidates, 2 * admissions)
                << r.admissionCandidates << " candidates for "
                << admissions << " admissions at queue depth " << peak;
        }
    }
}

} // namespace
} // namespace mcbp::engine
