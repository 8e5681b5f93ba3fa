#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hpp"

namespace mcbp {

void
StatRegistry::add(const std::string &name, std::uint64_t delta)
{
    counters_[name] += delta;
}

std::uint64_t
StatRegistry::get(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

bool
StatRegistry::has(const std::string &name) const
{
    return counters_.find(name) != counters_.end();
}

void
StatRegistry::clear()
{
    for (auto &kv : counters_)
        kv.second = 0;
}

void
StatRegistry::merge(const StatRegistry &other)
{
    for (const auto &kv : other.counters_)
        counters_[kv.first] += kv.second;
}

std::vector<std::string>
StatRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(counters_.size());
    for (const auto &kv : counters_)
        out.push_back(kv.first);
    return out;
}

std::string
StatRegistry::toString() const
{
    std::ostringstream os;
    for (const auto &kv : counters_)
        os << kv.first << " = " << kv.second << "\n";
    return os.str();
}

void
RunningStat::observe(double v)
{
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }
    ++count_;
    sum_ += v;
}

double
RunningStat::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double
percentile(std::vector<double> samples, double p)
{
    std::sort(samples.begin(), samples.end());
    return percentileSorted(samples, p);
}

namespace {

/** Where the p-quantile of n samples sits between order statistics. */
struct QuantileRank
{
    std::size_t lo = 0;
    std::size_t hi = 0;
    double frac = 0.0;
};

QuantileRank
quantileRank(std::size_t n, double p)
{
    fatalIf(n == 0, "percentile of an empty sample set");
    fatalIf(p < 0.0 || p > 1.0, "percentile p must be in [0, 1]");
    const double rank = p * static_cast<double>(n - 1);
    QuantileRank r;
    r.lo = static_cast<std::size_t>(std::floor(rank));
    r.hi = static_cast<std::size_t>(std::ceil(rank));
    r.frac = rank - static_cast<double>(r.lo);
    return r;
}

/** Linear interpolation between the two bracketing order statistics. */
double
interpolate(double lo, double hi, double frac)
{
    return lo + (hi - lo) * frac;
}

} // namespace

double
percentileSorted(const std::vector<double> &sorted, double p)
{
    const QuantileRank r = quantileRank(sorted.size(), p);
    return interpolate(sorted[r.lo], sorted[r.hi], r.frac);
}

std::vector<double>
percentilesBySelection(std::vector<double> &samples,
                       const std::vector<double> &ascending)
{
    std::vector<double> out;
    out.reserve(ascending.size());
    // Invariant: everything before `from` is <= everything from it on,
    // so a rank at or past `from` is selected within [from, end).
    auto from = samples.begin();
    double previous = 0.0;
    for (const double p : ascending) {
        const QuantileRank r = quantileRank(samples.size(), p);
        fatalIf(p < previous, "percentile ps must be ascending");
        previous = p;
        const auto lo = samples.begin() +
                        static_cast<std::ptrdiff_t>(r.lo);
        std::nth_element(from, lo, samples.end());
        // The next order statistic is the least of the upper part.
        const double hi =
            r.hi == r.lo ? *lo : *std::min_element(lo + 1, samples.end());
        out.push_back(interpolate(*lo, hi, r.frac));
        from = lo;
    }
    return out;
}

} // namespace mcbp
