/** @file Unit tests for the sim/ layer: HBM, area, energy,
 *  PE-cluster cycle model, pipeline composition and McbpConfig. */
#include <gtest/gtest.h>

#include "sim/area_model.hpp"
#include "sim/energy_model.hpp"
#include "sim/hbm.hpp"
#include "sim/mcbp_config.hpp"
#include "sim/pe_cluster.hpp"
#include "sim/pipeline.hpp"

namespace mcbp::sim {
namespace {

TEST(McbpConfig, PaperTotals)
{
    const McbpConfig &cfg = defaultConfig();
    EXPECT_EQ(cfg.totalSramKb(), 1248u); // evaluation-fixed SRAM.
    EXPECT_EQ(cfg.hbmBitsPerCoreCycle, 512u);
    EXPECT_DOUBLE_EQ(cfg.hbmBytesPerCycle(), 64.0);
    EXPECT_DOUBLE_EQ(cfg.peakAddsPerCycle(), 16.0 * 8.0 * 16.0 * 4.0);
}

TEST(McbpConfig, ToStringMentionsUnits)
{
    const std::string s = defaultConfig().toString();
    EXPECT_NE(s.find("PE clusters"), std::string::npos);
    EXPECT_NE(s.find("BSTC"), std::string::npos);
    EXPECT_NE(s.find("BGPP"), std::string::npos);
    EXPECT_NE(s.find("HBM2"), std::string::npos);
}

TEST(Hbm, BandwidthMath)
{
    Hbm hbm(defaultConfig());
    HbmTransfer t = hbm.read(6400, 1.0);
    // 6400 B at 64 B/cycle = 100 cycles + row activations.
    EXPECT_GE(t.cycles, 100.0);
    EXPECT_LT(t.cycles, 125.0);
    EXPECT_DOUBLE_EQ(t.energyPj, 6400.0 * 32.0);
}

TEST(Hbm, ScatteredCostsMoreRows)
{
    Hbm hbm(defaultConfig());
    HbmTransfer seq = hbm.read(1 << 20, 1.0);
    HbmTransfer scat = hbm.read(1 << 20, 0.0);
    EXPECT_GT(scat.rowActivations, seq.rowActivations * 10);
    EXPECT_GT(scat.cycles, seq.cycles);
    // Energy per bit is layout-independent in this model.
    EXPECT_DOUBLE_EQ(seq.energyPj, scat.energyPj);
}

TEST(Hbm, StatsAccumulate)
{
    Hbm hbm(defaultConfig());
    hbm.read(1000, 1.0);
    hbm.write(500, 1.0);
    EXPECT_EQ(hbm.stats().bytesRead, 1000u);
    EXPECT_EQ(hbm.stats().bytesWritten, 500u);
    EXPECT_GT(hbm.stats().busyCycles, 0.0);
}

TEST(Hbm, BadFractionFatal)
{
    Hbm hbm(defaultConfig());
    EXPECT_THROW(hbm.read(10, 1.5), std::runtime_error);
}

TEST(AreaModel, PaperTotalAndBreakdown)
{
    AreaBreakdown a = computeArea(defaultConfig());
    // Fig 22(a): 9.52 mm^2 total; BRCR dominates at ~38%.
    EXPECT_NEAR(a.total(), 9.52, 0.15);
    EXPECT_NEAR(a.brcrUnit / a.total(), 0.382, 0.02);
    EXPECT_NEAR(a.sram / a.total(), 0.191, 0.02);
    EXPECT_NEAR(a.bstcUnit / a.total(), 0.062, 0.015);
    EXPECT_NEAR(a.bgppUnit / a.total(), 0.045, 0.015);
    // Fig 24(b): CAM is ~25% area overhead on the BRCR unit -> ~20% of it.
    EXPECT_NEAR(a.camOnly / a.brcrUnit, 0.20, 0.02);
}

TEST(AreaModel, ScalesWithConfiguration)
{
    McbpConfig big = defaultConfig();
    big.peClusters *= 2;
    big.weightSramKb *= 2;
    AreaBreakdown base = computeArea(defaultConfig());
    AreaBreakdown scaled = computeArea(big);
    EXPECT_NEAR(scaled.brcrUnit, base.brcrUnit * 2.0, 1e-9);
    EXPECT_GT(scaled.sram, base.sram);
    EXPECT_DOUBLE_EQ(scaled.apu, base.apu);
}

TEST(AreaModel, SystolicBaselineLarger)
{
    // Equal-throughput dense array burns more area than the BRCR fabric
    // (Fig 24(b): BRCR reduces area by ~45%).
    const double sa = systolicBaselineArea(defaultConfig());
    AreaBreakdown mcbp = computeArea(defaultConfig());
    EXPECT_GT(sa, mcbp.total() * 0.7);
}

TEST(EnergyModel, Linearity)
{
    EnergyModel e;
    EXPECT_DOUBLE_EQ(e.addsEnergy(2000), 2.0 * e.addsEnergy(1000));
    EXPECT_DOUBLE_EQ(e.dramEnergy(1), 32.0); // 8 bits x 4 pJ/bit.
    EXPECT_GT(e.macsEnergy(100), e.addsEnergy(100));
}

TEST(EnergyModel, DramDominatesPerByte)
{
    EnergyModel e;
    EXPECT_GT(e.dramEnergy(1000), e.sramEnergy(1000, true) * 5.0);
}

TEST(EnergyBreakdown, MergeAndTotal)
{
    EnergyBreakdown a, b;
    a.computePj = 10.0;
    a.dramPj = 90.0;
    b.computePj = 5.0;
    b.sramPj = 5.0;
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.totalPj(), 110.0);
    EXPECT_DOUBLE_EQ(a.onChipPj(), 20.0);
    EXPECT_NE(a.toString().find("dram"), std::string::npos);
}

TEST(PeCluster, PipelinedMaxRule)
{
    PeClusterModel m(defaultConfig());
    // Merge-dominated work: cycles track merge adds / lanes.
    BrcrWork w;
    w.mergeAdds = defaultConfig().peakAddsPerCycle() * 100.0;
    EXPECT_DOUBLE_EQ(m.brcrCycles(w), 100.0);
    // Search-dominated work.
    BrcrWork s;
    s.camSearches = 128.0 * 50.0;
    EXPECT_DOUBLE_EQ(m.brcrCycles(s), 50.0);
    // Combined: the max, not the sum.
    BrcrWork both = w;
    both.camSearches = s.camSearches;
    EXPECT_DOUBLE_EQ(m.brcrCycles(both), 100.0);
}

TEST(PeCluster, CodecAndBgppRates)
{
    PeClusterModel m(defaultConfig());
    EXPECT_DOUBLE_EQ(m.codecCycles({80.0 * 10.0}), 10.0);
    EXPECT_DOUBLE_EQ(m.bgppCycles({64.0 * 64.0 * 3.0, 0.0}), 3.0);
    EXPECT_DOUBLE_EQ(
        m.denseMacCycles(defaultConfig().peakAddsPerCycle() * 7.0), 7.0);
}

TEST(Pipeline, OverlapNeverSlowerThanSerial)
{
    StageCycles s;
    s.weightLoad = 100;
    s.weightDecode = 50;
    s.linearCompute = 120;
    s.prediction = 60;
    s.kvLoad = 40;
    s.attention = 30;
    s.sfu = 20;
    s.actLoad = 10;
    LayerLatency overlap = composeLayer(s);
    LayerLatency serial = composeLayerSerial(s);
    EXPECT_LT(overlap.totalCycles, serial.totalCycles);
    // Linear part is the max of its contributors.
    EXPECT_DOUBLE_EQ(overlap.linearPart, 120.0);
}

TEST(Pipeline, PredictionHiddenWithinQkvWindow)
{
    StageCycles s;
    s.linearCompute = 100;
    s.prediction = 30; // fits inside the 35-cycle QKV window
    s.kvLoad = 10;
    s.attention = 5;
    LayerLatency lat = composeLayer(s);
    EXPECT_DOUBLE_EQ(lat.attentionPart, 10.0);
    s.prediction = 135; // 100 cycles exposed beyond the window
    lat = composeLayer(s);
    EXPECT_DOUBLE_EQ(lat.attentionPart, 110.0);
}

TEST(Pipeline, SfuPartiallyExposed)
{
    StageCycles s;
    s.sfu = 100;
    LayerLatency lat = composeLayer(s);
    EXPECT_DOUBLE_EQ(lat.exposedSfu,
                     100.0 * defaultConfig().exposedSfuFraction);
}

TEST(Pipeline, OverlapConstantsSweepableViaConfig)
{
    // The ablations sweep the overlap constants through McbpConfig
    // instead of recompiling.
    StageCycles s;
    s.linearCompute = 100;
    s.prediction = 50;
    s.sfu = 100;
    McbpConfig cfg = defaultConfig();
    cfg.exposedSfuFraction = 0.5;
    cfg.predictionOverlapWindow = 0.0;
    LayerLatency lat = composeLayer(s, cfg);
    EXPECT_DOUBLE_EQ(lat.exposedSfu, 50.0);
    EXPECT_DOUBLE_EQ(lat.attentionPart, 50.0); // nothing hidden
    cfg.predictionOverlapWindow = 1.0;
    lat = composeLayer(s, cfg);
    EXPECT_DOUBLE_EQ(lat.attentionPart, 0.0); // fully hidden
}

} // namespace
} // namespace mcbp::sim
