/**
 * @file
 * The design_sweep workload: cold profiling of a design-space sweep,
 * the way the figure benches price it. Each timed repeat starts from
 * a fresh Registry (an empty profile cache), warms the whole fleet
 * with Registry::warmFleet and then prices every point with
 * Accelerator::run. No event core runs; nearly all the work is the
 * functional bit-slice profiling behind the profile cache.
 *
 * Points: the technique ladder (all off, BRCR only, BRCR+BSTC, all
 * on), an alpha ladder, the A100 and two SOTA baselines over the five
 * zoo models x {Dolly, Wikilingua, MBPP, Wikitext2}; plus the fig20(a)(b)
 * grid: MCBP standard and aggressive at 148 processors vs the A100 at
 * B=8 over the zoo x {Dolly, Wikilingua, MBPP}. Profiling draws its
 * synthetic tiles from the run's seed.
 */
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "accel/report.hpp"
#include "common/stats.hpp"
#include "engine/registry.hpp"
#include "harness.hpp"
#include "model/llm_config.hpp"
#include "model/workload.hpp"

namespace layerbench {

namespace {

using namespace mcbp;

const std::vector<std::string> kLadder = {
    "mcbp-baseline",   "mcbp:bstc=0,bgpp=0", "mcbp:bgpp=0",
    "mcbp",            "mcbp-aggressive",    "mcbp:alpha=0.55",
    "mcbp:alpha=0.65", "a100",               "spatten",
    "bitwave"};
const std::vector<std::string> kLadderTasks = {"Dolly", "Wikilingua", "MBPP",
                                               "Wikitext2"};
/** fig20(a)(b): standard, aggressive, and the GPU they are compared to. */
const std::vector<std::string> kGrid = {"mcbp:procs=148",
                                        "mcbp-aggressive:procs=148", "a100"};
const std::vector<std::string> kGridTasks = {"Dolly", "Wikilingua", "MBPP"};
constexpr int kSetupSamples = 32;
constexpr double kPaperSpeedup = 8.72;
constexpr double kPaperEfficiency = 29.2;

/** Index of the ladder design whose points feed the sim_* metrics. */
constexpr std::size_t kMcbp = 3;
constexpr std::size_t kBaseline = 0;

std::string
seeded(const std::string &spec, std::uint64_t seed)
{
    return spec + (spec.find(':') == std::string::npos ? ":" : ",") +
           "seed=" + std::to_string(seed);
}

struct Point
{
    std::size_t design; ///< Index into specs (ladder, then grid).
    const model::LlmConfig *model;
    model::Workload task; ///< Zoo task at its evaluation batch (8).
};

std::vector<Point>
sweepPoints()
{
    std::vector<Point> points;
    for (std::size_t d = 0; d < kLadder.size(); ++d)
        for (const model::LlmConfig &m : model::modelZoo())
            for (const std::string &t : kLadderTasks)
                points.push_back({d, &m, model::findTask(t)});
    for (std::size_t g = 0; g < kGrid.size(); ++g)
        for (const model::LlmConfig &m : model::modelZoo())
            for (const std::string &t : kGridTasks) {
                model::Workload task = model::findTask(t);
                task.batch = 8;
                points.push_back({kLadder.size() + g, &m, task});
            }
    return points;
}

struct Repeat
{
    double makeSeconds = 0.0; ///< Registry + every make(): set-up.
    double warmSeconds = 0.0;
    double timedSeconds = 0.0; ///< warmFleet + every run().
    std::uint64_t profileCalls = 0;
    std::size_t profileEntries = 0;
    std::vector<accel::RunMetrics> runs; ///< Point order.
};

Repeat
runOnce(const std::vector<std::string> &specs,
        const std::vector<Point> &points, Tracer &tracer)
{
    Repeat rep;
    Tracer::Scope whole(tracer, "design_sweep.repeat", "harness");
    std::vector<std::unique_ptr<engine::Accelerator>> fleet;
    engine::Registry registry;
    {
        Tracer::Scope setup(tracer, "setup", "harness");
        for (const std::string &spec : specs) {
            Tracer::Scope span(tracer, "Registry::make", "engine.registry");
            fleet.push_back(registry.make(spec));
        }
        rep.makeSeconds = setup.stop();
    }
    Tracer::Scope timed(tracer, "timed", "harness");
    {
        std::vector<model::Workload> tasks;
        for (const std::string &t : kLadderTasks)
            tasks.push_back(model::findTask(t));
        Tracer::Scope span(tracer, "Registry::warmFleet",
                           "accel.profile_cache");
        registry.warmFleet(fleet, model::modelZoo(), tasks);
        rep.warmSeconds = span.stop();
    }
    rep.profileCalls = registry.profileCache()->profileCalls();
    rep.profileEntries = registry.profileCache()->size();
    {
        Tracer::Scope span(tracer, "Accelerator::run", "engine.accelerator");
        for (const Point &p : points)
            rep.runs.push_back(fleet[p.design]->run(*p.model, p.task));
    }
    rep.timedSeconds = timed.stop();
    return rep;
}

std::uint64_t
digestOf(const std::vector<accel::RunMetrics> &runs)
{
    Digest d;
    for (const accel::RunMetrics &r : runs) {
        d.add(r.accelerator);
        for (const accel::PhaseMetrics *p : {&r.prefill, &r.decode}) {
            for (double v : {p->cycles, p->energy.totalPj(),
                             p->traffic.total(), p->denseMacs,
                             p->executedAdds, p->gemmCycles,
                             p->weightLoadCycles, p->kvLoadCycles,
                             p->otherCycles})
                d.add(v);
        }
        d.add(static_cast<std::uint64_t>(r.processors));
    }
    return d.value();
}

} // namespace

RunResult
runDesignSweep(const RunConfig &cfg, Tracer &tracer)
{
    RunResult result;
    Tracer::Scope run(tracer, "workload:design_sweep", "harness");
    std::vector<std::string> specs;
    for (const std::string &s : kLadder)
        specs.push_back(seeded(s, cfg.seed));
    for (const std::string &s : kGrid)
        specs.push_back(seeded(s, cfg.seed));
    const std::vector<Point> points = sweepPoints();

    // Set-up alone is well under a millisecond, so it is also sampled
    // on its own before the timed loop; setup_s is the median of all.
    std::vector<double> makeS, warmS, timedS, tracedS, untracedS, pps;
    for (int i = 0; !cfg.digestOnly && i < kSetupSamples; ++i) {
        const Clock::time_point s0 = Clock::now();
        engine::Registry registry;
        std::vector<std::unique_ptr<engine::Accelerator>> fleet;
        for (const std::string &spec : specs)
            fleet.push_back(registry.make(spec));
        makeS.push_back(secondsSince(s0));
    }

    // ---- Timed: cold sweeps repeat for cfg.seconds --------------------
    Repeat first;
    double rss = 0.0;
    const bool record = tracer.recording();
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kMinRepeats || (!cfg.digestOnly &&
                                         secondsSince(t0) < cfg.seconds);
         ++i) {
        tracer.setRecording(record && i % 2 == 0);
        Repeat rep = runOnce(specs, points, tracer);
        (tracer.recording() ? tracedS : untracedS).push_back(rep.timedSeconds);
        makeS.push_back(rep.makeSeconds);
        warmS.push_back(rep.warmSeconds);
        timedS.push_back(rep.timedSeconds);
        pps.push_back(static_cast<double>(points.size()) / rep.timedSeconds);
        result.attempted += points.size();
        std::uint64_t bad = 0;
        for (const accel::RunMetrics &r : rep.runs)
            bad += !(r.totalCycles() > 0.0 && r.joules() > 0.0);
        result.failed += bad;
        const std::uint64_t digest = digestOf(rep.runs);
        if (i == 0) {
            result.digest = digest;
            first = std::move(rep);
        } else if (digest != result.digest) {
            result.fail("sweep digest differs between repeats");
        }
        if (i == kMinRepeats - 1)
            rss = peakRssMb();
        if (cfg.digestOnly)
            break;
    }
    tracer.setRecording(record);
    if (cfg.digestOnly)
        return result;
    if (result.failed > 0)
        result.fail("a design point priced to zero or non-finite cost");

    // ---- Simulated metrics --------------------------------------------
    // Points are laid out design by design: the ladder, then the grid's
    // standard, aggressive and A100 blocks in one zoo x task order.
    const std::size_t stride = model::modelZoo().size() * kGridTasks.size();
    const std::size_t gridStart =
        kLadder.size() * model::modelZoo().size() * kLadderTasks.size();
    double speedup = 0.0, efficiency = 0.0, speedupA = 0.0, effA = 0.0;
    for (std::size_t k = 0; k < stride; ++k) {
        const accel::RunMetrics &s = first.runs[gridStart + k];
        const accel::RunMetrics &a = first.runs[gridStart + stride + k];
        const accel::RunMetrics &g = first.runs[gridStart + 2 * stride + k];
        speedup += accel::speedupVs(s, g) / static_cast<double>(stride);
        efficiency += s.gopsPerWatt() / g.gopsPerWatt() /
                      static_cast<double>(stride);
        speedupA += accel::speedupVs(a, g) / static_cast<double>(stride);
        effA += a.gopsPerWatt() / g.gopsPerWatt() / static_cast<double>(stride);
    }
    std::vector<double> ttft;
    double tokens = 0.0, seconds = 0.0, joules = 0.0;
    accel::PhaseMetrics cycles[2]; // mcbp, mcbp-baseline
    for (std::size_t i = 0; i < points.size(); ++i) {
        const accel::RunMetrics &r = first.runs[i];
        const int side = points[i].design == kMcbp       ? 0
                         : points[i].design == kBaseline ? 1
                                                         : -1;
        if (side < 0)
            continue;
        cycles[side].merge(r.prefill);
        cycles[side].merge(r.decode);
        if (side == 0) {
            ttft.push_back(r.prefill.cycles / (r.clockGhz * 1e9));
            tokens += static_cast<double>(points[i].task.batch *
                                          points[i].task.decodeLen);
            seconds += r.seconds();
            joules += r.joules();
        }
    }

    Metrics &e2e = result.endToEnd;
    e2e.set("requests_per_s", median(pps), "1/s");
    e2e.set("design_points_per_s", median(pps), "1/s");
    e2e.set("setup_s", median(makeS), "s");
    e2e.set("peak_rss_mb", rss, "MB");
    e2e.set("completed_share",
            1.0 - static_cast<double>(result.failed) /
                      static_cast<double>(result.attempted),
            "ratio");
    e2e.set("sim_ttft_p50_s", percentile(ttft, 0.5), "s");
    e2e.set("sim_ttft_p99_s", percentile(ttft, 0.99), "s");
    e2e.set("sim_tokens_per_s", tokens / seconds, "1/s");
    e2e.set("sim_joules_per_token", joules / tokens, "J");
    e2e.set("sim_speedup_vs_a100", speedup, "x");
    e2e.set("sim_efficiency_vs_a100", efficiency, "x");

    char line[320];
    std::snprintf(line, sizeof line,
                  "fig20(a)(b) over %zu points (the paper averages 26 "
                  "benchmarks): MCBP(S) speedup %.2fx vs paper %.2fx "
                  "(error %+.1f%%), efficiency %.1fx vs paper %.1fx "
                  "(error %+.1f%%); MCBP(A) %.2fx / %.1fx vs paper "
                  "9.43x / 31.1x",
                  stride, speedup, kPaperSpeedup,
                  100.0 * (speedup / kPaperSpeedup - 1.0), efficiency,
                  kPaperEfficiency,
                  100.0 * (efficiency / kPaperEfficiency - 1.0), speedupA,
                  effA);
    result.notes.push_back(line);
    result.notes.push_back(
        "sim_ttft samples: " + std::to_string(ttft.size()) +
        " mcbp design points (prefill time of one B=8 inference); points "
        "per repeat: " + std::to_string(points.size()));
    result.notes.push_back(repeatSummary(timedS));

    if (tracer.recording()) {
        Metrics &m = result.perLayer;
        m.set("trace.overhead_ratio", median(tracedS) / median(untracedS),
              "ratio");
        m.set("engine.registry.make_ms",
              median(makeS) / static_cast<double>(specs.size()) * 1e3, "ms");
        const double calls = static_cast<double>(first.profileCalls);
        m.set("accel.profile_cache.warm_s", median(warmS), "s");
        m.set("accel.profile_cache.profile_calls", calls, "count");
        m.set("accel.profile_cache.ms_per_profile",
              median(warmS) / calls * 1e3, "ms");
        m.set("accel.profile_cache.entries",
              static_cast<double>(first.profileEntries), "count");
        m.set("accel.profile_cache.timed_share",
              median(warmS) / median(timedS), "ratio");
        setCycleRatios(m, cycles[0], cycles[1]);
        measureKernels(m, tracer, cfg.seed);
    }
    return result;
}

} // namespace layerbench
