/**
 * @file
 * Serving fast-path benchmark: wall-clock of the two layers a
 * million-request trace spends its time in, each gated on the
 * equivalence contract that makes the fast path safe to ship.
 *
 * Sections:
 *  1. Trace costing — the per-request pricing loop, serial
 *     (costingThreads = 1) vs the parallel fan-out (costingThreads =
 *     0), each pricing every request from its prepared cost. Each leg
 *     is the median of 9 timed costings, alternating which leg runs
 *     first, each result freed before the next costing starts.
 *     The costed traces are verified bit-identical always; the >= 4x
 *     speedup gate binds only when the host grants >= 8 hardware
 *     threads (the fan-out cannot win on a 1-2 core runner), and the
 *     not-slower gate (parallel >= serial) from 4 hardware threads.
 *  2. Decode-iteration coalescing — the same long-decode trace played
 *     through the event core per-token vs coalesced, under reserve
 *     and under a preempting paged pool. Scheduling decisions
 *     (admission order, preemption victims, completion order) must
 *     match verbatim, aggregates to 1e-9 relative, and the coalesced
 *     run must win >= 10x in decode loop passes (the algorithmic
 *     gate, host-independent) — wall-clock is reported alongside.
 *
 * Exit code 0 iff every enforced gate passes. `--json <path>`
 * archives the records (bench_util.hpp schema).
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <functional>
#include <iostream>
#include <set>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "engine/registry.hpp"
#include "engine/serving.hpp"
#include "model/request.hpp"

using namespace mcbp;

namespace {

/** Wall and process CPU seconds of one call. CPU time well above wall
 *  time means threads ran at once; CPU time equal to wall time means
 *  the host ran them one at a time, whatever the thread count. */
struct Timing
{
    double wall = 0.0;
    double cpu = 0.0;
};

Timing
timed(const std::function<void()> &fn)
{
    const std::clock_t c0 = std::clock();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const std::clock_t c1 = std::clock();
    return {std::chrono::duration<double>(t1 - t0).count(),
            static_cast<double>(c1 - c0) / CLOCKS_PER_SEC};
}

/** Median wall and median CPU time of an odd number of runs. */
Timing
medianTiming(std::vector<Timing> runs)
{
    const auto mid =
        runs.begin() + static_cast<std::ptrdiff_t>(runs.size() / 2);
    Timing out;
    std::nth_element(runs.begin(), mid, runs.end(),
                     [](const Timing &a, const Timing &b) {
                         return a.wall < b.wall;
                     });
    out.wall = mid->wall;
    std::nth_element(runs.begin(), mid, runs.end(),
                     [](const Timing &a, const Timing &b) {
                         return a.cpu < b.cpu;
                     });
    out.cpu = mid->cpu;
    return out;
}

double
seconds(const std::function<void()> &fn)
{
    return timed(fn).wall;
}

/** Relative agreement of two aggregates (coalescing drift check). */
bool
near(double a, double b)
{
    const double scale = std::max({std::abs(a), std::abs(b), 1.0});
    return std::abs(a - b) <= 1e-9 * scale;
}

/** Costed traces bit-identical field for field. */
bool
costsIdentical(const engine::ServingSimulator::CostedTrace &a,
               const engine::ServingSimulator::CostedTrace &b)
{
    if (a.clockGhz != b.clockGhz || a.serialSeconds != b.serialSeconds ||
        a.serialJoules != b.serialJoules ||
        a.costs.size() != b.costs.size())
        return false;
    for (std::size_t i = 0; i < a.costs.size(); ++i) {
        const engine::CostedRequest &x = a.costs[i];
        const engine::CostedRequest &y = b.costs[i];
        const engine::TopologyPrice &xp = x.price[engine::kHealthy];
        const engine::TopologyPrice &yp = y.price[engine::kHealthy];
        if (x.req->id != y.req->id ||
            x.arrivalCycles != y.arrivalCycles ||
            xp.prefillCycles != yp.prefillCycles ||
            xp.pendingPrefillJoules != yp.pendingPrefillJoules ||
            xp.weightCyclesPerToken != yp.weightCyclesPerToken ||
            xp.linearCyclesPerToken != yp.linearCyclesPerToken ||
            xp.otherCyclesPerToken != yp.otherCyclesPerToken ||
            xp.fixedCyclesPerToken != yp.fixedCyclesPerToken ||
            xp.weightJoulesPerToken != yp.weightJoulesPerToken ||
            xp.otherJoulesPerToken != yp.otherJoulesPerToken ||
            x.kvBytes != y.kvBytes ||
            x.kvBytesPerToken != y.kvBytesPerToken ||
            x.remainingTokens != y.remainingTokens)
            return false;
    }
    return true;
}

/** The coalescing equivalence contract between two reports. */
bool
decisionsIdentical(const engine::ServingReport &ref,
                   const engine::ServingReport &coal, bool &drift_ok)
{
    drift_ok = near(ref.busySeconds, coal.busySeconds) &&
               near(ref.makespanSeconds, coal.makespanSeconds) &&
               near(ref.joulesPerToken, coal.joulesPerToken) &&
               near(ref.meanTpotSeconds, coal.meanTpotSeconds) &&
               near(ref.p99FirstTokenSeconds, coal.p99FirstTokenSeconds);
    if (ref.admissionOrder != coal.admissionOrder ||
        ref.preemptionOrder != coal.preemptionOrder ||
        ref.preemptions != coal.preemptions ||
        ref.decodeIterations != coal.decodeIterations ||
        ref.requests.size() != coal.requests.size())
        return false;
    for (std::size_t i = 0; i < ref.requests.size(); ++i) {
        if (ref.requests[i].id != coal.requests[i].id)
            return false;
        drift_ok = drift_ok && near(ref.requests[i].completionSeconds,
                                    coal.requests[i].completionSeconds);
    }
    return true;
}

std::size_t
generatedTokens(const engine::ServingReport &r)
{
    std::size_t tokens = 0;
    for (const engine::RequestMetrics &m : r.requests)
        tokens += m.decodeTokens;
    return tokens;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::validatedJsonPathFromArgs(argc, argv);
    bench::JsonRecords json("serving_speed");
    bool all_gates = true;

    engine::Registry registry;
    auto accel = registry.make("mcbp");

    // ---- Section 1: parallel trace costing ---------------------------
    bench::banner("Trace costing: serial vs parallel fan-out");
    model::TraceConfig tc;
    tc.model = "OPT1B3";
    tc.task = "Dolly";
    tc.requests = 4000;
    tc.arrivalsPerSecond = 100.0;
    tc.seed = 5;
    const auto costing_trace = model::synthesizeTrace(tc);

    engine::ServingOptions serial_opts;
    serial_opts.costingThreads = 1;
    const engine::ServingSimulator serial_sim(*accel, serial_opts);
    engine::ServingOptions par_opts;
    par_opts.costingThreads = 0; // full pool.
    const engine::ServingSimulator par_sim(*accel, par_opts);
    // An untimed serial reference costing also warms the profile
    // cache: every timed costing then pays only the per-request
    // pricing from prepared costs (plus preparing the trace's handful
    // of costs), the layer the fan-out parallelizes.
    const engine::ServingSimulator::CostedTrace reference =
        serial_sim.costTrace(costing_trace);

    // Each leg is the median of kCostingRepeats timed costings, the
    // legs alternating which goes first, so a millisecond host stall
    // moves one sample rather than the verdict. Each costing is
    // checked against the reference and freed before the next one
    // runs: no timed costing allocates while another's result lives.
    constexpr std::size_t kCostingRepeats = 9;

    bool cost_identical = true;
    std::vector<Timing> serial_runs, par_runs;
    const auto costLeg = [&](const engine::ServingSimulator &sim,
                             std::vector<Timing> &runs) {
        engine::ServingSimulator::CostedTrace costs;
        runs.push_back(
            timed([&] { costs = sim.costTrace(costing_trace); }));
        cost_identical = cost_identical && costsIdentical(reference, costs);
    };
    for (std::size_t rep = 0; rep < kCostingRepeats; ++rep) {
        if (rep % 2 == 0) {
            costLeg(serial_sim, serial_runs);
            costLeg(par_sim, par_runs);
        } else {
            costLeg(par_sim, par_runs);
            costLeg(serial_sim, serial_runs);
        }
    }
    const Timing serial_t = medianTiming(serial_runs);
    const Timing par_t = medianTiming(par_runs);
    const double serial_s = serial_t.wall;
    const double par_s = par_t.wall;

    const double cost_speedup = par_s > 0.0 ? serial_s / par_s : 1.0;
    const bool cost_gate_enforced = parallel::hardwareThreads() >= 8;
    const bool cost_gate =
        cost_identical && (!cost_gate_enforced || cost_speedup >= 4.0);
    // No-regression gate: the pooled fan-out must not lose to serial
    // once the host has the cores to run it.
    const bool no_slower_enforced = parallel::hardwareThreads() >= 4;
    const bool no_slower_gate =
        !no_slower_enforced || cost_speedup >= 1.0;
    all_gates = all_gates && cost_gate && no_slower_gate;

    std::set<std::pair<std::size_t, std::size_t>> shapes;
    for (const model::Request &r : costing_trace)
        shapes.emplace(r.promptLen, r.decodeLen);
    std::printf("  requests %zu  distinct shapes %zu  threads %zu  "
                "median of %zu alternating runs per leg\n",
                costing_trace.size(), shapes.size(),
                parallel::hardwareThreads(), kCostingRepeats);
    std::printf("  serial    %8.4f s  (%.0f req/s)  cpu %.4f s\n",
                serial_s,
                serial_s > 0.0 ? costing_trace.size() / serial_s : 0.0,
                serial_t.cpu);
    std::printf("  parallel  %8.4f s  (%.0f req/s)  cpu %.4f s\n", par_s,
                par_s > 0.0 ? costing_trace.size() / par_s : 0.0,
                par_t.cpu);
    std::printf("  speedup   %8.2fx   bit-identical: %s\n", cost_speedup,
                cost_identical ? "yes" : "NO (BUG)");
    if (!cost_gate_enforced)
        std::printf("  speedup gate (>= 4x) skipped: %zu hardware "
                    "threads < 8\n",
                    parallel::hardwareThreads());
    else
        std::printf("  speedup gate (>= 4x): %s\n",
                    cost_gate ? "pass" : "FAIL");
    if (!no_slower_enforced)
        std::printf("  not-slower gate (>= 1x) skipped: %zu hardware "
                    "threads < 4\n",
                    parallel::hardwareThreads());
    else
        std::printf("  not-slower gate (>= 1x): %s\n",
                    no_slower_gate ? "pass" : "FAIL");
    json.begin()
        .field("section", "trace_costing")
        .field("requests", costing_trace.size())
        .field("distinct_shapes", shapes.size())
        .field("threads", parallel::hardwareThreads())
        .field("repeats", kCostingRepeats)
        .field("serial_s", serial_s)
        .field("parallel_s", par_s)
        .field("serial_cpu_s", serial_t.cpu)
        .field("parallel_cpu_s", par_t.cpu)
        .field("requests_costed_per_s",
               par_s > 0.0 ? costing_trace.size() / par_s : 0.0)
        .field("speedup", cost_speedup)
        .field("bit_identical", cost_identical ? 1 : 0)
        .field("gate_enforced", cost_gate_enforced ? 1 : 0)
        .field("not_slower_gate_enforced", no_slower_enforced ? 1 : 0)
        .field("not_slower_gate", no_slower_gate ? 1 : 0);

    // ---- Section 2: decode-iteration coalescing ----------------------
    bench::banner("Decode coalescing: per-token vs coalesced stepping");
    // A long-decode burst (everything arrives at t = 0): the per-token
    // loop pays one pass per generated token, the coalesced loop one
    // pass per discrete event. Decode lengths are staggered so
    // completions keep re-chunking the windows.
    std::vector<model::Request> decode_trace;
    for (std::size_t i = 0; i < 256; ++i) {
        model::Request r;
        r.id = i;
        r.arrivalSeconds = 0.0;
        r.model = "OPT1B3";
        r.task = "Dolly";
        r.promptLen = 96 + (i * 13) % 64;
        r.decodeLen = 2048 + (i * 257) % 2048;
        decode_trace.push_back(r);
    }

    struct Leg
    {
        const char *name;
        engine::KvPolicy kv;
        double capacity; // <= 0 = unbounded.
        /** Enforce the >= 10x window-reduction gate: the long-decode
         *  leg's claim. The preempting leg exists to gate decision
         *  identity under eviction; its every preemption deliberately
         *  pins a window to one iteration, so only its contract —
         *  not its reduction ratio — is gated. */
        bool gateWindows;
    };
    std::vector<Leg> legs = {{"reserve_unbounded",
                              engine::KvPolicy::Reserve, 0.0, true}};
    {
        // Size a paged pool to preempt: the decision-identity gate
        // must cover eviction victims, not just admissions.
        engine::ServingOptions probe;
        probe.maxBatch = 64;
        probe.kvPolicy = engine::KvPolicy::Paged;
        const double peak = engine::ServingSimulator(*accel, probe)
                                .simulate(decode_trace)
                                .kvPeakBytes;
        legs.push_back({"paged_preempting", engine::KvPolicy::Paged,
                        peak / 4.0, false});
    }

    for (const Leg &leg : legs) {
        engine::ServingOptions base;
        base.maxBatch = 64;
        base.kvPolicy = leg.kv;
        base.kvCapacityBytes = leg.capacity;

        engine::ServingOptions ref_opts = base;
        ref_opts.stepMode = engine::StepMode::PerToken;
        engine::ServingSimulator ref_sim(*accel, ref_opts);
        engine::ServingOptions coal_opts = base;
        coal_opts.stepMode = engine::StepMode::Coalesced;
        engine::ServingSimulator coal_sim(*accel, coal_opts);

        // Warm both plan caches untimed so the timed walls compare
        // the event loops, not cold costing.
        (void)ref_sim.costTrace(decode_trace);
        (void)coal_sim.costTrace(decode_trace);

        engine::ServingReport ref, coal;
        const double ref_s =
            seconds([&] { ref = ref_sim.simulate(decode_trace); });
        const double coal_s =
            seconds([&] { coal = coal_sim.simulate(decode_trace); });

        bool drift_ok = false;
        const bool decisions = decisionsIdentical(ref, coal, drift_ok);
        const double wall_speedup = coal_s > 0.0 ? ref_s / coal_s : 1.0;
        const double window_reduction =
            coal.decodeWindows > 0
                ? static_cast<double>(coal.decodeIterations) /
                      static_cast<double>(coal.decodeWindows)
                : 1.0;
        // The algorithmic gate: >= 10x fewer decode loop passes. The
        // wall-clock win is reported but not gated (tiny traces put
        // costing/aggregation in the denominator).
        const bool leg_gate =
            decisions && drift_ok &&
            (!leg.gateWindows || window_reduction >= 10.0);
        all_gates = all_gates && leg_gate;

        const std::size_t tokens = generatedTokens(coal);
        std::printf("  [%s]\n", leg.name);
        std::printf("    per-token  %8.3f s  (%zu iterations, "
                    "%zu passes)\n",
                    ref_s, ref.decodeIterations, ref.decodeWindows);
        std::printf("    coalesced  %8.3f s  (%zu iterations, "
                    "%zu windows)\n",
                    coal_s, coal.decodeIterations, coal.decodeWindows);
        std::printf("    wall %5.2fx  window reduction %7.1fx  "
                    "sim tokens/s %.3g  preemptions %zu\n",
                    wall_speedup, window_reduction,
                    coal_s > 0.0 ? tokens / coal_s : 0.0,
                    coal.preemptions);
        std::printf("    decisions identical: %s   drift <= 1e-9: %s   "
                    "gate%s: %s\n",
                    decisions ? "yes" : "NO (BUG)",
                    drift_ok ? "yes" : "NO (BUG)",
                    leg.gateWindows ? " (>= 10x windows)" : "",
                    leg_gate ? "pass" : "FAIL");
        json.begin()
            .field("section", "decode_coalescing")
            .field("leg", leg.name)
            .field("per_token_s", ref_s)
            .field("coalesced_s", coal_s)
            .field("wall_speedup", wall_speedup)
            .field("decode_iterations", coal.decodeIterations)
            .field("decode_windows", coal.decodeWindows)
            .field("admission_candidates", coal.admissionCandidates)
            .field("window_reduction", window_reduction)
            .field("simulated_tokens_per_s",
                   coal_s > 0.0 ? tokens / coal_s : 0.0)
            .field("decisions_identical", decisions ? 1 : 0)
            .field("drift_ok", drift_ok ? 1 : 0)
            .field("windows_gate_enforced", leg.gateWindows ? 1 : 0);
        bench::appendServingFields(json, coal);
    }

    json.writeIfRequested(argc, argv);
    std::printf("\nserving-speed gates: %s\n",
                all_gates ? "PASS" : "FAIL");
    return all_gates ? 0 : 1;
}
