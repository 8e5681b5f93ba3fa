/**
 * @file
 * The three serving workloads. Each is an open-loop Poisson trace in
 * simulated time, played as an offline batch job on the host: host
 * throughput is simulated requests finished per host second of one
 * whole simulate() at the stated size, each repeat on a fresh
 * simulator (cold plan cache) over a warm profile cache.
 *
 *  - steady: `mcbp`, OPT1B3/Dolly at 0.2 req/s (about half the chip's
 *    capacity), reserve KV, FIFO. No queue builds, so costing is
 *    nearly all of simulate() and the event core idles.
 *  - overload: the same chip, model and task at 0.8 req/s (2x
 *    capacity). The queue grows without bound and admission work in
 *    the event core dominates; costing is a small share.
 *  - fleet_failover: `mcbp:dp=4`, OPT1B3/MBPP, paged KV at 0.6x the
 *    unbounded per-replica peak, seeded transient chip failures plus
 *    one permanent replica loss at mid-trace, with a deadline. The
 *    only workload on the fleet router, failover reroutes, paged
 *    preemption and recompute re-pricing.
 */
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "accel/plan_cache.hpp"
#include "common/rng.hpp"
#include "engine/event_core.hpp"
#include "engine/fleet.hpp"
#include "engine/registry.hpp"
#include "engine/scheduler.hpp"
#include "engine/serving.hpp"
#include "harness.hpp"
#include "model/request.hpp"
#include "sim/fault_model.hpp"

namespace layerbench {

namespace {

using namespace mcbp;

struct ServingWorkload
{
    const char *name;
    const char *design;
    const char *model;
    const char *task;
    double arrivalsPerSecond;
    std::size_t requests;
    /** Requests replayed per-token vs coalesced by the output check. */
    std::size_t equivalencePrefix;
    /** Paged KV under a fleet budget plus a fault timeline. */
    bool failover;
};

const ServingWorkload kWorkloads[] = {
    {"steady", "mcbp", "OPT1B3", "Dolly", 0.2, 50000, 2000, false},
    {"overload", "mcbp", "OPT1B3", "Dolly", 0.8, 15000, 1000, false},
    {"fleet_failover", "mcbp:dp=4", "OPT1B3", "MBPP", 0.6, 60000, 2000,
     true},
};

const ServingWorkload *
findWorkload(const std::string &name)
{
    for (const ServingWorkload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

/** The inputs of one run: the registry that built the served design
 *  (its profile cache warm), the design, the trace, the options. */
struct Inputs
{
    std::unique_ptr<engine::Registry> registry;
    std::vector<std::unique_ptr<engine::Accelerator>> fleet; ///< Size 1.
    std::vector<model::Request> trace;
    /** Distinct (prompt, decode) shapes: the design points the trace
     *  needs priced. */
    std::vector<model::Workload> shapes;
    engine::ServingOptions opts;
    double makeSeconds = 0.0;
    double warmSeconds = 0.0;
    double setupSeconds = 0.0;

    const engine::Accelerator &accel() const { return *fleet.front(); }
    const engine::FleetAccelerator *fleetAccel() const
    {
        return dynamic_cast<const engine::FleetAccelerator *>(
            fleet.front().get());
    }
};

/** Registry build, trace synthesis and cold profile warm. */
std::unique_ptr<Inputs>
setUp(const ServingWorkload &w, std::uint64_t seed, Tracer &tracer)
{
    Tracer::Scope setup(tracer, "setup", "harness");
    auto in = std::make_unique<Inputs>();
    in->registry = std::make_unique<engine::Registry>();
    {
        Tracer::Scope span(tracer, "Registry::make", "engine.registry");
        in->fleet.push_back(in->registry->make(w.design));
        in->makeSeconds = span.stop();
    }
    {
        Tracer::Scope span(tracer, "model::synthesizeTrace",
                           "model.request");
        model::TraceConfig tc;
        tc.model = w.model;
        tc.task = w.task;
        tc.requests = w.requests;
        tc.arrivalsPerSecond = w.arrivalsPerSecond;
        tc.seed = seed;
        in->trace = model::synthesizeTrace(tc);
        std::set<std::pair<std::size_t, std::size_t>> seen;
        for (const model::Request &r : in->trace)
            if (seen.insert({r.promptLen, r.decodeLen}).second)
                in->shapes.push_back(r.workload());
    }
    {
        Tracer::Scope span(tracer, "Registry::warmFleet",
                           "accel.profile_cache");
        in->registry->warmFleet(in->fleet, {model::findModel(w.model)},
                                in->shapes);
        in->warmSeconds = span.stop();
    }
    in->setupSeconds = setup.stop();
    return in;
}

/**
 * The failover workload's KV budget and fault timeline. The budget is
 * 0.6x the per-replica KV peak of an unbounded healthy run, times dp;
 * the peak is measured on a fixed reference trace (the first requests
 * of seed 1), so the budget is a constant of the workload, not of the
 * run's seed. The timeline holds kTransients transient chip failures,
 * one in each equal slot of the trace at a seeded time and on a seeded
 * chip, plus one permanent replica loss at mid-trace. Many short-lived
 * failures, not a few, keep the TTFT tail steady from seed to seed.
 */
void
configureFailover(Inputs &in, const ServingWorkload &w, std::uint64_t seed,
                  RunResult &result)
{
    constexpr std::size_t kTransients = 96;
    const engine::FleetAccelerator *fleet = in.fleetAccel();
    const std::size_t dp = fleet->options().dataParallel;
    const std::size_t chips = in.accel().capabilities().kvShards;

    model::TraceConfig ref;
    ref.model = w.model;
    ref.task = w.task;
    ref.requests = 4000;
    ref.arrivalsPerSecond = w.arrivalsPerSecond;
    ref.seed = 1;
    engine::ServingOptions calib;
    calib.kvPolicy = engine::KvPolicy::Paged;
    const engine::FleetOutcome healthy =
        engine::FleetRouter(*fleet, calib).simulate(
            model::synthesizeTrace(ref));
    double replicaPeak = 0.0;
    for (const engine::ServingReport &r : healthy.replicas)
        replicaPeak = std::max(replicaPeak, r.kvPeakBytes);

    in.opts.kvPolicy = engine::KvPolicy::Paged;
    in.opts.kvCapacityBytes = 0.6 * replicaPeak * static_cast<double>(dp);
    in.opts.retry.deadlineSeconds = 600.0;

    // The lost replica is the one serving the mid-trace request, lost
    // just after that request arrives: it always has work to reroute.
    // Routing ignores transient failures, so a healthy run of the
    // trace's first half finds it.
    const std::size_t mid = in.trace.size() / 2;
    const std::vector<model::Request> firstHalf(
        in.trace.begin(),
        in.trace.begin() + static_cast<std::ptrdiff_t>(mid + 1));
    sim::FaultEvent loss;
    loss.at = in.trace[mid].arrivalSeconds + 1e-3;
    loss.kind = sim::FaultKind::ChipFail;
    loss.chip = engine::FleetRouter(*fleet, in.opts)
                    .simulate(firstHalf)
                    .assignment[mid] *
                (chips / dp);
    loss.permanent = true;

    const double horizon = in.trace.back().arrivalSeconds;
    mcbp::Rng rng(seed ^ 0xFA11u);
    const double slot = horizon / static_cast<double>(kTransients);
    for (std::size_t k = 0; k < kTransients; ++k) {
        sim::FaultEvent e;
        e.at = slot * (static_cast<double>(k) + rng.uniform(0.1, 0.9));
        e.kind = sim::FaultKind::ChipFail;
        e.repairAt = e.at + 60.0;
        // Once the lost chip is down for good, only survivors can fail.
        if (e.repairAt < loss.at) {
            e.chip = static_cast<std::size_t>(rng.uniformInt(chips));
        } else {
            e.chip = static_cast<std::size_t>(rng.uniformInt(chips - 1));
            e.chip += e.chip >= loss.chip ? 1 : 0;
        }
        in.opts.faults.events.push_back(e);
    }
    in.opts.faults.events.push_back(loss);

    std::ostringstream note;
    note << "failover: dp=" << dp << ", KV budget "
         << in.opts.kvCapacityBytes / 1e9 << " GB (0.6x per-replica peak "
         << replicaPeak / 1e9 << " GB x " << dp << "), "
         << in.opts.faults.events.size() - 1
         << " transient chip failures, permanent loss of chip "
         << loss.chip << " at " << loss.at << " s";
    result.notes.push_back(note.str());
}

/** One whole simulate(): a FleetOutcome on every path (the flat path
 *  fills only `fleet`). */
engine::FleetOutcome
simulate(const Inputs &in, const std::vector<model::Request> &trace,
         const engine::ServingOptions &opts, Tracer &tracer)
{
    if (const engine::FleetAccelerator *fleet = in.fleetAccel()) {
        Tracer::Scope span(tracer, "FleetRouter::simulate", "engine.fleet");
        return engine::FleetRouter(*fleet, opts).simulate(trace);
    }
    Tracer::Scope span(tracer, "ServingSimulator::simulate",
                       "engine.serving");
    engine::FleetOutcome out;
    out.fleet = engine::ServingSimulator(in.accel(), opts).simulate(trace);
    return out;
}

/** Digest of every simulated output of a run (host-side counters such
 *  as decode windows are left out: a host optimisation may move them). */
std::uint64_t
digestOf(const engine::FleetOutcome &out)
{
    const engine::ServingReport &r = out.fleet;
    Digest d;
    d.add(r.accelerator);
    d.add(r.scheduler);
    d.add(r.kvPolicy);
    for (const engine::RequestMetrics &m : r.requests) {
        d.add(static_cast<std::uint64_t>(m.id));
        d.add(m.arrivalSeconds);
        d.add(m.admissionSeconds);
        d.add(m.firstTokenSeconds);
        d.add(m.completionSeconds);
        d.add(static_cast<std::uint64_t>(m.decodeTokens));
        d.add(m.kvBytes);
        d.add(static_cast<std::uint64_t>(m.preemptions));
        d.add(static_cast<std::uint64_t>(m.recomputedTokens));
        d.add(static_cast<std::uint64_t>(m.retries));
        d.add(static_cast<std::uint64_t>(m.sloMiss));
        d.add(m.joules);
    }
    for (double v : {r.makespanSeconds, r.busySeconds, r.serialSeconds,
                     r.serialJoules, r.tokensPerSecond, r.joulesPerToken,
                     r.kvPeakBytes, r.kvBlockUtilization,
                     r.goodputTokensPerSecond, r.sloAttainment})
        d.add(v);
    for (const std::vector<std::size_t> *log :
         {&r.admissionOrder, &r.preemptionOrder, &r.retryOrder,
          &r.dropOrder, &out.assignment})
        for (std::size_t id : *log)
            d.add(static_cast<std::uint64_t>(id));
    d.add(static_cast<std::uint64_t>(r.decodeIterations));
    d.add(static_cast<std::uint64_t>(out.reroutes));
    return d.value();
}

bool
near(double a, double b)
{
    const double scale = std::max({std::abs(a), std::abs(b), 1.0});
    return std::abs(a - b) <= 1e-9 * scale;
}

/** Conservation and the KV budget, on the first repeat's outcome. */
void
checkOutcome(const Inputs &in, const engine::FleetOutcome &out,
             RunResult &result)
{
    const engine::ServingReport &r = out.fleet;
    std::map<std::size_t, int> seen;
    for (const engine::RequestMetrics &m : r.requests)
        ++seen[m.id];
    for (std::size_t id : r.dropOrder)
        ++seen[id];
    bool conserved = seen.size() == in.trace.size() &&
                     r.droppedRequests == r.dropOrder.size();
    for (const model::Request &q : in.trace)
        conserved = conserved && seen[q.id] == 1;
    if (!conserved)
        result.fail("conservation: a request was not completed or "
                    "dropped exactly once");

    if (!engine::kvUnbounded(in.opts.kvCapacityBytes)) {
        const double budget = in.opts.kvCapacityBytes;
        bool within = r.kvPeakBytes <= budget;
        const double perReplica =
            budget / static_cast<double>(std::max<std::size_t>(
                         1, out.replicas.size()));
        for (const engine::ServingReport &rep : out.replicas)
            within = within && rep.kvPeakBytes <= perReplica;
        if (!within)
            result.fail("KV peak exceeds the configured budget");
    }
}

/** Coalesced vs per-token stepping on the trace's first requests:
 *  identical decisions, aggregates within 1e-9. */
void
checkStepEquivalence(const Inputs &in, const ServingWorkload &w,
                     Tracer &tracer, RunResult &result)
{
    const std::vector<model::Request> prefix(
        in.trace.begin(),
        in.trace.begin() +
            std::min<std::ptrdiff_t>(w.equivalencePrefix, in.trace.size()));
    engine::ServingOptions coalesced = in.opts;
    coalesced.stepMode = engine::StepMode::Coalesced;
    engine::ServingOptions perToken = in.opts;
    perToken.stepMode = engine::StepMode::PerToken;
    const engine::FleetOutcome a = simulate(in, prefix, coalesced, tracer);
    const engine::FleetOutcome b = simulate(in, prefix, perToken, tracer);
    const engine::ServingReport &x = a.fleet;
    const engine::ServingReport &y = b.fleet;
    bool same = x.admissionOrder == y.admissionOrder &&
                x.preemptionOrder == y.preemptionOrder &&
                x.retryOrder == y.retryOrder && x.dropOrder == y.dropOrder &&
                a.assignment == b.assignment && a.reroutes == b.reroutes &&
                x.decodeIterations == y.decodeIterations &&
                x.requests.size() == y.requests.size();
    for (std::size_t i = 0; same && i < x.requests.size(); ++i)
        same = x.requests[i].id == y.requests[i].id &&
               near(x.requests[i].completionSeconds,
                    y.requests[i].completionSeconds);
    same = same && near(x.busySeconds, y.busySeconds) &&
           near(x.makespanSeconds, y.makespanSeconds) &&
           near(x.joulesPerToken, y.joulesPerToken) &&
           near(x.p99FirstTokenSeconds, y.p99FirstTokenSeconds);
    if (!same)
        result.fail("coalesced and per-token stepping disagree on the "
                    "first " + std::to_string(prefix.size()) + " requests");
    else
        result.notes.push_back(
            "check: coalesced == per-token on the first " +
            std::to_string(prefix.size()) + " requests (" +
            std::to_string(x.decodeWindows) + " vs " +
            std::to_string(y.decodeWindows) + " decode windows)");
}

/** Queue depth peak from the report's arrival/admission times. */
double
peakQueueDepth(const engine::ServingReport &r)
{
    std::vector<std::pair<double, int>> events;
    for (const engine::RequestMetrics &m : r.requests) {
        events.push_back({m.arrivalSeconds, +1});
        events.push_back({m.admissionSeconds, -1});
    }
    // Admissions at an arrival's instant leave before the next joins.
    std::sort(events.begin(), events.end());
    long depth = 0, peak = 0;
    for (const auto &e : events) {
        depth += e.second;
        peak = std::max(peak, depth);
    }
    return static_cast<double>(peak);
}

/** The served design (its replica) vs the A100 at B=8 on the workload's
 *  model and task: the fig20 speedup and efficiency at this point. */
void
compareWithA100(const Inputs &in, const ServingWorkload &w, Metrics &e2e)
{
    const model::LlmConfig &m = model::findModel(w.model);
    model::Workload task = model::findTask(w.task);
    task.batch = 8;
    const engine::Accelerator &served =
        in.fleetAccel() ? in.fleetAccel()->replica() : in.accel();
    const auto gpu = in.registry->make("a100");
    const accel::RunMetrics s = served.run(m, task);
    const accel::RunMetrics g = gpu->run(m, task);
    e2e.set("sim_speedup_vs_a100", accel::speedupVs(s, g), "x");
    e2e.set("sim_efficiency_vs_a100", s.gopsPerWatt() / g.gopsPerWatt(),
            "x");
}

/** Traced-run layer attribution, outside the timed loop. */
void
attributeLayers(const Inputs &in, const ServingWorkload &w,
                const engine::FleetOutcome &first, double simulateSeconds,
                Tracer &tracer, RunResult &result)
{
    Tracer::Scope attribution(tracer, "attribution", "harness");
    Metrics &m = result.perLayer;
    const double n = static_cast<double>(in.trace.size());

    // accel.plan_cache: cold costing at the full pool, the same
    // simulator again warm, and a cold serial leg.
    engine::ServingOptions parallelOpts = in.opts;
    parallelOpts.costingThreads = 0;
    const engine::ServingSimulator sim(in.accel(), parallelOpts);
    engine::ServingSimulator::CostedTrace costed;
    double coldSeconds = 0.0, warmSeconds = 0.0, serialSeconds = 0.0;
    {
        Tracer::Scope span(tracer, "ServingSimulator::costTrace",
                           "accel.plan_cache");
        costed = sim.costTrace(in.trace);
        coldSeconds = span.stop();
    }
    const double computeCalls =
        static_cast<double>(sim.planCache()->computeCalls());
    {
        Tracer::Scope span(tracer, "ServingSimulator::costTrace(warm)",
                           "accel.plan_cache");
        (void)sim.costTrace(in.trace);
        warmSeconds = span.stop();
    }
    {
        engine::ServingOptions serialOpts = in.opts;
        serialOpts.costingThreads = 1;
        Tracer::Scope span(tracer, "ServingSimulator::costTrace(serial)",
                           "accel.plan_cache");
        (void)engine::ServingSimulator(in.accel(), serialOpts)
            .costTrace(in.trace);
        serialSeconds = span.stop();
    }
    m.set("accel.plan_cache.cold_ns_per_request", coldSeconds / n * 1e9,
          "ns");
    m.set("accel.plan_cache.warm_ns_per_request", warmSeconds / n * 1e9,
          "ns");
    m.set("accel.plan_cache.compute_calls", computeCalls, "count");
    m.set("accel.plan_cache.hit_ratio", 1.0 - computeCalls / n, "ratio");
    m.set("accel.plan_cache.parallel_speedup", serialSeconds / coldSeconds,
          "x");
    m.set("accel.plan_cache.timed_share", coldSeconds / simulateSeconds,
          "ratio");

    // engine.event_core: a direct run on the costed trace where the
    // workload allows it (reserve, no faults); the fleet path is only
    // visible from outside as simulate minus its cold costing.
    const engine::ServingReport &r = first.fleet;
    double coreSeconds = 0.0;
    std::string method;
    std::size_t admissions = r.admissionOrder.size();
    std::size_t windows = r.decodeWindows, iterations = r.decodeIterations;
    if (!w.failover) {
        const std::unique_ptr<engine::Scheduler> scheduler =
            engine::makeScheduler(in.opts.policy, in.opts.sjfAgingWeight);
        engine::KvOptions kv;
        kv.policy = in.opts.kvPolicy;
        kv.capacityBytes = in.opts.kvCapacityBytes;
        kv.blockTokens = in.opts.kvBlockTokens;
        kv.lowWatermark = in.opts.kvLowWatermark;
        const engine::EventCore core(*scheduler, in.opts.maxBatch, kv);
        Tracer::Scope span(tracer, "EventCore::run", "engine.event_core");
        const engine::EventStats stats = core.run(costed.costs);
        coreSeconds = span.stop();
        admissions = stats.admissionOrder.size();
        windows = stats.decodeWindows;
        iterations = stats.iterations;
        method = "direct EventCore::run on the costed trace "
                 "(reserve KV, no faults)";
    } else {
        coreSeconds = std::max(0.0, simulateSeconds - coldSeconds);
        method = "FleetRouter::simulate median minus the cold "
                 "ServingSimulator::costTrace span (includes routing)";
    }
    result.notes.push_back("engine.event_core time: " + method);
    result.traceMetadata.push_back({"engine.event_core.method", method});
    m.set("engine.event_core.s", coreSeconds, "s");
    m.set("engine.event_core.ns_per_request", coreSeconds / n * 1e9, "ns");
    m.set("engine.event_core.ns_per_admission",
          admissions > 0 ? coreSeconds / static_cast<double>(admissions) * 1e9
                         : 0.0,
          "ns");
    m.set("engine.event_core.admissions", static_cast<double>(admissions),
          "count");
    m.set("engine.event_core.decode_windows", static_cast<double>(windows),
          "count");
    m.set("engine.event_core.decode_iterations",
          static_cast<double>(iterations), "count");
    m.set("engine.event_core.peak_queue_depth", peakQueueDepth(r), "count");
    m.set("engine.event_core.timed_share", coreSeconds / simulateSeconds,
          "ratio");

    if (in.fleetAccel() != nullptr) {
        m.set("engine.fleet.s", simulateSeconds, "s");
        m.set("engine.fleet.reroutes", static_cast<double>(first.reroutes),
              "count");
        std::vector<double> load(first.replicas.size(), 0.0);
        for (std::size_t replica : first.assignment)
            load[replica] += 1.0;
        const double mean = n / static_cast<double>(load.size());
        m.set("engine.fleet.replica_load_max_over_mean",
              *std::max_element(load.begin(), load.end()) / mean, "ratio");
    }
    m.set("engine.kv_block_manager.preemptions",
          static_cast<double>(r.preemptions), "count");
    m.set("engine.kv_block_manager.recomputed_tokens",
          static_cast<double>(r.recomputedTokens), "count");
    m.set("engine.kv_block_manager.block_utilization", r.kvBlockUtilization,
          "ratio");
    m.set("engine.kv_block_manager.peak_utilization", r.kvUtilization,
          "ratio");

    // Modelled design: where MCBP's cycles went against the all-off
    // baseline, on the workload's own model and task.
    const model::LlmConfig &llm = model::findModel(w.model);
    const model::Workload &task = model::findTask(w.task);
    const auto full = in.registry->make("mcbp");
    const auto base = in.registry->make("mcbp-baseline");
    const auto bothPhases = [&](const engine::Accelerator &a) {
        const accel::RunMetrics run = a.run(llm, task);
        accel::PhaseMetrics p = run.prefill;
        p.merge(run.decode);
        return p;
    };
    setCycleRatios(m, bothPhases(*full), bothPhases(*base));
}

} // namespace

bool
isServingWorkload(const std::string &name)
{
    return findWorkload(name) != nullptr;
}

RunResult
runServing(const RunConfig &cfg, Tracer &tracer)
{
    const ServingWorkload &w = *findWorkload(cfg.workload);
    RunResult result;
    Tracer::Scope run(tracer, std::string("workload:") + w.name, "harness");

    // Set up several times (each from a cold registry) and keep the
    // last; the median is setup_s.
    const int setups = cfg.digestOnly ? 1 : 9;
    std::vector<double> setupS, makeS, warmS;
    std::unique_ptr<Inputs> in;
    for (int i = 0; i < setups; ++i) {
        in = setUp(w, cfg.seed, tracer);
        setupS.push_back(in->setupSeconds);
        makeS.push_back(in->makeSeconds);
        warmS.push_back(in->warmSeconds);
    }
    const double profileCalls =
        static_cast<double>(in->registry->profileCache()->profileCalls());
    const double profileEntries =
        static_cast<double>(in->registry->profileCache()->size());
    if (w.failover)
        configureFailover(*in, w, cfg.seed, result);

    // ---- Timed: whole simulate() repeats for cfg.seconds ------------
    std::vector<double> rps, pointsPerS, simS, tracedS, untracedS;
    engine::FleetOutcome first;
    double rss = 0.0;
    {
        Tracer::Scope timed(tracer, "timed", "harness");
        const Clock::time_point t0 = Clock::now();
        const bool record = tracer.recording();
        for (int rep = 0; rep < kMinRepeats ||
                          (!cfg.digestOnly && secondsSince(t0) < cfg.seconds);
             ++rep) {
            // The traced run alternates recording on and off, so the
            // tracing overhead is measured against untraced repeats.
            tracer.setRecording(record && rep % 2 == 0);
            const Clock::time_point s0 = Clock::now();
            engine::FleetOutcome out = simulate(*in, in->trace, in->opts,
                                                tracer);
            const double s = secondsSince(s0);
            simS.push_back(s);
            (tracer.recording() ? tracedS : untracedS).push_back(s);
            const std::uint64_t digest = digestOf(out);
            const double done = static_cast<double>(out.fleet.requests.size());
            rps.push_back(done / s);
            pointsPerS.push_back(static_cast<double>(in->shapes.size()) / s);
            result.attempted += in->trace.size();
            if (rep == 0) {
                result.digest = digest;
                first = std::move(out);
            } else if (digest != result.digest) {
                result.fail("report digest differs between repeats");
            }
            if (rep == kMinRepeats - 1)
                rss = peakRssMb();
            if (cfg.digestOnly)
                break;
        }
        tracer.setRecording(record);
    }
    if (cfg.digestOnly)
        return result;
    const double simulateSeconds = median(simS);

    // ---- Untimed output checks ---------------------------------------
    {
        Tracer::Scope checks(tracer, "checks", "harness");
        checkOutcome(*in, first, result);
        checkStepEquivalence(*in, w, tracer, result);
    }

    const engine::ServingReport &r = first.fleet;
    Metrics &e2e = result.endToEnd;
    e2e.set("requests_per_s", median(rps), "1/s");
    e2e.set("design_points_per_s", median(pointsPerS), "1/s");
    e2e.set("setup_s", median(setupS), "s");
    e2e.set("peak_rss_mb", rss, "MB");
    e2e.set("completed_share",
            static_cast<double>(r.requests.size()) /
                static_cast<double>(in->trace.size()),
            "ratio");
    e2e.set("sim_ttft_p50_s", r.p50FirstTokenSeconds, "s");
    e2e.set("sim_ttft_p99_s", r.p99FirstTokenSeconds, "s");
    e2e.set("sim_tokens_per_s", r.tokensPerSecond, "1/s");
    e2e.set("sim_joules_per_token", r.joulesPerToken, "J");
    compareWithA100(*in, w, e2e);
    result.notes.push_back(
        "sim_ttft samples: " + std::to_string(r.requests.size()) +
        " completed requests; distinct shapes: " +
        std::to_string(in->shapes.size()));
    result.notes.push_back(repeatSummary(simS));
    if (w.failover)
        result.notes.push_back(
            "failover outcome: " + std::to_string(first.reroutes) +
            " reroutes, " + std::to_string(r.preemptions) +
            " preemptions, " + std::to_string(r.retriesScheduled) +
            " retries, " + std::to_string(r.droppedRequests) + " dropped");

    if (tracer.recording()) {
        Metrics &m = result.perLayer;
        m.set("trace.overhead_ratio", median(tracedS) / median(untracedS),
              "ratio");
        m.set("engine.registry.make_ms", median(makeS) * 1e3, "ms");
        m.set("accel.profile_cache.warm_s", median(warmS), "s");
        m.set("accel.profile_cache.profile_calls", profileCalls, "count");
        m.set("accel.profile_cache.ms_per_profile",
              profileCalls > 0.0 ? median(warmS) / profileCalls * 1e3 : 0.0,
              "ms");
        m.set("accel.profile_cache.entries", profileEntries, "count");
        attributeLayers(*in, w, first, simulateSeconds, tracer, result);
        measureKernels(m, tracer, cfg.seed);
    }
    return result;
}

} // namespace layerbench
