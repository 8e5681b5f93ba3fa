#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

namespace layerbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
repeatSummary(const std::vector<double> &seconds)
{
    std::vector<double> v = seconds;
    std::sort(v.begin(), v.end());
    const auto at = [&](double q) {
        const double last = static_cast<double>(v.size() - 1);
        return v[static_cast<std::size_t>(q * last)];
    };
    char line[160];
    std::snprintf(line, sizeof line,
                  "timed repeats: %zu, seconds min %.4f q1 %.4f median %.4f "
                  "q3 %.4f max %.4f",
                  v.size(), v.front(), at(0.25), median(v), at(0.75),
                  v.back());
    return line;
}

void
Metrics::set(const std::string &name, double value, const std::string &unit)
{
    for (Metric &m : items_)
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    items_.push_back({name, value, unit});
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 0x100000001b3ull;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

void
Digest::add(const std::string &s)
{
    add(static_cast<std::uint64_t>(s.size()));
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 0x100000001b3ull;
    }
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

Tracer::Tracer(bool record) : record_(record), epoch_(Clock::now()) {}

int
Tracer::open(const std::string &name, const std::string &layer)
{
    if (!record_)
        return -1;
    Span s;
    s.name = name;
    s.layer = layer;
    s.startUs = secondsSince(epoch_) * 1e6;
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
}

double
Tracer::close(int id, Clock::time_point start)
{
    const double seconds = secondsSince(start);
    if (id >= 0) {
        spans_[static_cast<std::size_t>(id)].endUs =
            secondsSince(epoch_) * 1e6;
        // Scopes nest, so the closing span is the innermost open one.
        if (!stack_.empty() && stack_.back() == id)
            stack_.pop_back();
    }
    return seconds;
}

Tracer::Scope::Scope(Tracer &tracer, const std::string &name,
                     const std::string &layer)
    : tracer_(tracer), start_(Clock::now()), id_(tracer.open(name, layer))
{
}

Tracer::Scope::~Scope() { stop(); }

double
Tracer::Scope::stop()
{
    if (seconds_ < 0.0)
        seconds_ = tracer_.close(id_, start_);
    return seconds_;
}

std::vector<std::pair<std::string, double>>
Tracer::selfSeconds() const
{
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].endUs >= 0.0)
            self[i] = (spans_[i].endUs - spans_[i].startUs) * 1e-6;
    for (const Span &s : spans_)
        if (s.parent >= 0 && s.endUs >= 0.0)
            self[static_cast<std::size_t>(s.parent)] -=
                (s.endUs - s.startUs) * 1e-6;
    std::map<std::string, double> byLayer;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        byLayer[spans_[i].layer] += self[i];
    return {byLayer.begin(), byLayer.end()};
}

namespace {

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

} // namespace

bool
Tracer::writeChromeTrace(
    const std::string &path,
    const std::vector<std::pair<std::string, std::string>> &metadata) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endUs < 0.0)
            continue;
        char times[96];
        std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f",
                      s.startUs, s.endUs - s.startUs);
        out << (first ? "\n" : ",\n") << "{\"name\":" << quoted(s.name)
            << ",\"cat\":" << quoted(s.layer)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":1," << times
            << ",\"args\":{\"id\":" << i << ",\"parent\":"
            << (s.parent < 0
                    ? std::string("null")
                    : quoted(spans_[static_cast<std::size_t>(s.parent)]
                                 .name))
            << "}}";
        first = false;
    }
    out << "\n],\"metadata\":{";
    for (std::size_t i = 0; i < metadata.size(); ++i)
        out << (i == 0 ? "" : ",") << quoted(metadata[i].first) << ":"
            << quoted(metadata[i].second);
    out << "}}\n";
    return static_cast<bool>(out);
}

void
RunResult::fail(const std::string &why)
{
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
}

void
declarePerLayerMetrics(Metrics &m)
{
    static const std::pair<const char *, const char *> kLayerMetrics[] = {
        {"accel.plan_cache.cold_ns_per_request", "ns"},
        {"accel.plan_cache.warm_ns_per_request", "ns"},
        {"accel.plan_cache.compute_calls", "count"},
        {"accel.plan_cache.hit_ratio", "ratio"},
        {"accel.plan_cache.parallel_speedup", "x"},
        {"accel.plan_cache.self_s", "s"},
        {"accel.plan_cache.timed_share", "ratio"},
        {"engine.event_core.s", "s"},
        {"engine.event_core.ns_per_request", "ns"},
        {"engine.event_core.ns_per_admission", "ns"},
        {"engine.event_core.admissions", "count"},
        {"engine.event_core.decode_windows", "count"},
        {"engine.event_core.decode_iterations", "count"},
        {"engine.event_core.peak_queue_depth", "count"},
        {"engine.event_core.self_s", "s"},
        {"engine.event_core.timed_share", "ratio"},
        {"engine.fleet.s", "s"},
        {"engine.fleet.reroutes", "count"},
        {"engine.fleet.replica_load_max_over_mean", "ratio"},
        {"engine.fleet.self_s", "s"},
        {"engine.kv_block_manager.preemptions", "count"},
        {"engine.kv_block_manager.recomputed_tokens", "count"},
        {"engine.kv_block_manager.block_utilization", "ratio"},
        {"engine.kv_block_manager.peak_utilization", "ratio"},
        {"accel.profile_cache.warm_s", "s"},
        {"accel.profile_cache.profile_calls", "count"},
        {"accel.profile_cache.ms_per_profile", "ms"},
        {"accel.profile_cache.entries", "count"},
        {"accel.profile_cache.self_s", "s"},
        {"accel.profile_cache.timed_share", "ratio"},
        {"common.simd.popcount_gbps", "GB/s"},
        {"common.simd.popcount_scalar_gbps", "GB/s"},
        {"common.simd.nonzero_mask_gbps", "GB/s"},
        {"brcr.factorize_us_per_plane", "us"},
        {"bitslice.merge_dedup_us_per_plane", "us"},
        {"kernels.self_s", "s"},
        {"engine.registry.make_ms", "ms"},
        {"engine.registry.self_s", "s"},
        {"sim.brcr_gemm_cycle_ratio", "ratio"},
        {"sim.bstc_weight_load_cycle_ratio", "ratio"},
        {"sim.bgpp_kv_load_cycle_ratio", "ratio"},
        {"trace.overhead_ratio", "ratio"},
    };
    for (const auto &[name, unit] : kLayerMetrics)
        m.set(name, 0.0, unit);
}

void
setCycleRatios(Metrics &m, const mcbp::accel::PhaseMetrics &full,
               const mcbp::accel::PhaseMetrics &base)
{
    m.set("sim.brcr_gemm_cycle_ratio", full.gemmCycles / base.gemmCycles,
          "ratio");
    m.set("sim.bstc_weight_load_cycle_ratio",
          full.weightLoadCycles / base.weightLoadCycles, "ratio");
    m.set("sim.bgpp_kv_load_cycle_ratio", full.kvLoadCycles / base.kvLoadCycles,
          "ratio");
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

} // namespace layerbench
