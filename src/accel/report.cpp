#include "accel/report.hpp"

#include "common/logging.hpp"

namespace mcbp::accel {

void
PhaseMetrics::merge(const PhaseMetrics &o)
{
    cycles += o.cycles;
    energy.merge(o.energy);
    traffic.merge(o.traffic);
    denseMacs += o.denseMacs;
    executedAdds += o.executedAdds;
    gemmCycles += o.gemmCycles;
    weightLoadCycles += o.weightLoadCycles;
    kvLoadCycles += o.kvLoadCycles;
    otherCycles += o.otherCycles;
    weightStreamCycles += o.weightStreamCycles;
    linearWorkCycles += o.linearWorkCycles;
    fixedStepCycles += o.fixedStepCycles;
}

double
RunCost::seconds() const
{
    return totalCycles() / (clockGhz * 1e9);
}

double
RunCost::joules() const
{
    return (prefill.energy.totalPj() + decode.energy.totalPj()) * 1e-12 *
           static_cast<double>(processors);
}

double
RunMetrics::watts() const
{
    const double s = seconds();
    return s > 0.0 ? joules() / s : 0.0;
}

double
RunMetrics::gops() const
{
    const double s = seconds();
    const double ops = 2.0 * (prefill.denseMacs + decode.denseMacs);
    return s > 0.0 ? ops / s / 1e9 : 0.0;
}

double
RunMetrics::gopsPerWatt() const
{
    const double w = watts();
    return w > 0.0 ? gops() / w : 0.0;
}

double
speedupVs(const RunMetrics &test, const RunMetrics &baseline)
{
    fatalIf(test.seconds() <= 0.0, "degenerate run time");
    return baseline.seconds() / test.seconds();
}

double
energySavingVs(const RunMetrics &test, const RunMetrics &baseline)
{
    fatalIf(test.joules() <= 0.0, "degenerate run energy");
    return baseline.joules() / test.joules();
}

} // namespace mcbp::accel
