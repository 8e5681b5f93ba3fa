/**
 * @file
 * Shared plumbing of the layered harness benchmark: host timing, the
 * in-memory span recorder behind `--trace 1`, ordered metric lists,
 * and the report digest the output checks compare.
 *
 * Every number this benchmark reports is either host time (what the
 * simulator took to run, measured here with steady_clock around calls
 * into the library's public functions) or simulated (what the modelled
 * hardware would take; exact and deterministic for a seed). Metric
 * names say which: simulated ones start with `sim`.
 */
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/report.hpp"

namespace layerbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Median of @p v (0 for an empty sample). */
double median(std::vector<double> v);

/** "timed repeats: n, seconds min / q1 / median / q3 / max". */
std::string repeatSummary(const std::vector<double> &seconds);

/** One named metric with its unit, in report order. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Ordered metric list (names unique; set() overwrites). */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    const std::vector<Metric> &all() const { return items_; }

  private:
    std::vector<Metric> items_;
};

/** FNV-1a over the exact bits of the simulated outputs. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    void add(const std::string &s);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Hex form of a digest, as printed on the `digest` line. */
std::string hex(std::uint64_t v);

/**
 * Spans around calls into the library's public functions: name, layer
 * (the module the call belongs to), start, end, parent. Timing is
 * always taken (the end-to-end metrics need it); spans are kept only
 * when recording is on, so the untraced run stores nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool record);

    /** RAII span: times one call and closes on scope exit. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const std::string &name,
              const std::string &layer);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        /** Close now and return the duration (idempotent). */
        double stop();

      private:
        Tracer &tracer_;
        Clock::time_point start_;
        int id_;
        double seconds_ = -1.0;
    };

    bool recording() const { return record_; }
    void setRecording(bool on) { record_ = on; }

    /** Self time per layer: span duration minus the part covered by
     *  its child spans, summed over the layer's spans. */
    std::vector<std::pair<std::string, double>> selfSeconds() const;

    /** Write every span as Chrome trace-event JSON (complete "X"
     *  events; `args.parent` names the parent span). */
    bool writeChromeTrace(const std::string &path,
                          const std::vector<std::pair<std::string,
                                                      std::string>>
                              &metadata) const;

  private:
    /** Open a span; returns its index (or -1 when not recording). */
    int open(const std::string &name, const std::string &layer);
    /** Close span @p id; returns its duration in seconds. */
    double close(int id, Clock::time_point start);

    struct Span
    {
        std::string name;
        std::string layer;
        double startUs = 0.0;
        double endUs = -1.0;
        int parent = -1;
    };

    bool record_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Command-line settings of one benchmark run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Run the workload's timed work once and print only its digest
     *  (the caller compares it against a run at another pool size). */
    bool digestOnly = false;
    std::string traceOut;
};

/** Everything a workload hands back to main(). */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Digest of the simulated outputs (equal across repeats). */
    std::uint64_t digest = 0;
    Metrics endToEnd;
    Metrics perLayer;
    /** Human-readable lines printed before the result (checks, the
     *  paper reference, the event-core attribution method). */
    std::vector<std::string> notes;
    /** Metadata written into the Chrome trace. */
    std::vector<std::pair<std::string, std::string>> traceMetadata;

    /** Record a failed output check (the run then counts as failed). */
    void fail(const std::string &why);
};

/** The per-layer metrics every workload reports under `--trace 1`
 *  (0 where the workload does not exercise the layer). */
void declarePerLayerMetrics(Metrics &m);

/** The modelled-design metrics: gemm / weight-load / KV-load cycles of
 *  @p full (`mcbp`) over @p base (`mcbp-baseline`), each summed over
 *  both phases of the points compared. */
void setCycleRatios(Metrics &m, const mcbp::accel::PhaseMetrics &full,
                    const mcbp::accel::PhaseMetrics &base);

/** Fill the kernel-layer metrics (common.simd, brcr, bitslice). */
void measureKernels(Metrics &m, Tracer &tracer, std::uint64_t seed);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** Timed repeats every run makes at least (the traced run alternates
 *  recording on and off, so it needs two). peak_rss_mb is read after
 *  the last of them: later repeats grow allocator arenas, so reading
 *  it at the end would tie it to how many repeats a run fits in. */
constexpr int kMinRepeats = 3;

/** The serving workloads: steady, overload, fleet_failover. */
bool isServingWorkload(const std::string &name);
RunResult runServing(const RunConfig &cfg, Tracer &tracer);

/** The cold-profile design sweep. */
RunResult runDesignSweep(const RunConfig &cfg, Tracer &tracer);

} // namespace layerbench
