/**
 * @file
 * layerbench: one named workload of the layered harness benchmark.
 *
 *   layerbench --workload <steady|overload|fleet_failover|design_sweep>
 *              --seed <n> --seconds <s> --trace <0|1>
 *              [--trace-out <chrome-trace.json>] [--digest-only]
 *
 * Prints the run's environment record, the output checks, a `digest`
 * line (the simulated outputs' FNV-1a digest) and, last, one JSON
 * object {correct, attempted, failed, metrics}: the end-to-end metrics
 * with --trace 0, the per-layer metrics with --trace 1 (which also
 * writes the Chrome trace). Exits 1 when an output check fails, 2 on
 * bad arguments. `--digest-only` runs the timed work once and prints
 * only the digest line, so a caller can compare it across pool sizes.
 */
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/parallel.hpp"
#include "common/simd/simd.hpp"
#include "harness.hpp"

#ifndef LAYERBENCH_BUILD_TYPE
#define LAYERBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace layerbench;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "layerbench: %s\nusage: layerbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>] [--digest-only]\n",
                 why);
    return 2;
}

bool
parseArgs(int argc, char **argv, RunConfig &cfg)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--digest-only") {
            cfg.digestOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            cfg.workload = value;
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0')
                return false;
        } else if (arg == "--seconds") {
            cfg.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' ||
                !(cfg.seconds >= 0.0))
                return false;
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return false;
            cfg.trace = value == "1";
        } else if (arg == "--trace-out") {
            cfg.traceOut = value;
        } else {
            return false;
        }
    }
    return !cfg.workload.empty();
}

void
printMetrics(const Metrics &metrics)
{
    bool first = true;
    for (const Metric &m : metrics.all()) {
        // Non-finite values are not JSON; they fail the run instead.
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0,
                    m.unit.c_str());
        first = false;
    }
}

/**
 * Every per-layer metric in declared order (0 where the workload does
 * not exercise the layer), with the layers' self times from the spans.
 */
Metrics
layerMetrics(const RunResult &result, const Tracer &tracer)
{
    Metrics out;
    declarePerLayerMetrics(out);
    for (const Metric &m : result.perLayer.all())
        out.set(m.name, m.value, m.unit);
    double kernels = 0.0;
    for (const auto &[layer, self] : tracer.selfSeconds()) {
        std::printf("self time: %-24s %10.4f s\n", layer.c_str(), self);
        if (layer == "kernels" || layer == "common.simd" ||
            layer == "brcr" || layer == "bitslice")
            kernels += self;
        else if (layer == "accel.plan_cache" ||
                 layer == "engine.event_core" || layer == "engine.fleet" ||
                 layer == "accel.profile_cache" ||
                 layer == "engine.registry")
            out.set(layer + ".self_s", self, "s");
    }
    out.set("kernels.self_s", kernels, "s");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    if (!parseArgs(argc, argv, cfg))
        return usage("bad arguments");
    if (cfg.workload != "design_sweep" && !isServingWorkload(cfg.workload))
        return usage("unknown workload");

    const std::string buildType = LAYERBENCH_BUILD_TYPE;
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    const char *tier = mcbp::simd::tierName(mcbp::simd::activeTier());
    std::printf("env: pool_threads=%zu simd_tier=%s build_type=%s nproc=%ld\n",
                mcbp::parallel::hardwareThreads(), tier, buildType.c_str(),
                nproc);
    if (buildType != "Release")
        std::fprintf(stderr,
                     "layerbench: WARNING: %s build; host timings are only "
                     "comparable between Release builds\n",
                     buildType.c_str());

    Tracer tracer(cfg.trace);
    RunResult result = cfg.workload == "design_sweep"
                           ? runDesignSweep(cfg, tracer)
                           : runServing(cfg, tracer);
    std::printf("digest: %s\n", hex(result.digest).c_str());
    std::fflush(stdout);
    if (cfg.digestOnly)
        return result.correct ? 0 : 1;

    Metrics metrics = cfg.trace ? layerMetrics(result, tracer)
                                : result.endToEnd;
    for (const Metric &m : metrics.all())
        if (!std::isfinite(m.value))
            result.fail("metric " + m.name + " is not finite");
    if (cfg.trace) {
        result.traceMetadata.push_back({"workload", cfg.workload});
        result.traceMetadata.push_back({"seed", std::to_string(cfg.seed)});
        result.traceMetadata.push_back(
            {"pool_threads",
             std::to_string(mcbp::parallel::hardwareThreads())});
        result.traceMetadata.push_back({"simd_tier", tier});
        result.traceMetadata.push_back({"build_type", buildType});
        result.traceMetadata.push_back({"nproc", std::to_string(nproc)});
        if (!cfg.traceOut.empty() &&
            !tracer.writeChromeTrace(cfg.traceOut, result.traceMetadata))
            result.fail("cannot write the Chrome trace to " + cfg.traceOut);
    }
    for (const std::string &note : result.notes)
        std::printf("%s\n", note.c_str());
    // A failed output check counts the whole run as failed.
    if (!result.correct) {
        result.failed = result.attempted;
        result.endToEnd.set("completed_share", 0.0, "ratio");
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    printMetrics(metrics);
    std::printf("}}\n");
    return result.correct ? 0 : 1;
}
