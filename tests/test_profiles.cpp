/** @file Unit tests for accel/profiles: measured workload statistics. */
#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>
#include <vector>

#include "accel/profiles.hpp"
#include "model/workload.hpp"

namespace mcbp::accel {
namespace {

TEST(WeightProfile, RangesAreRealistic)
{
    const model::LlmConfig &m = model::findModel("Llama7B");
    WeightStats ws = profileWeights(m, quant::BitWidth::Int8, 1);
    // Fig 5(d)/Fig 25: value sparsity a few percent, bit sparsity ~0.7.
    EXPECT_GT(ws.valueSparsity, 0.005);
    EXPECT_LT(ws.valueSparsity, 0.2);
    EXPECT_GT(ws.meanBitSparsity, 0.55);
    EXPECT_LT(ws.meanBitSparsity, 0.92);
    EXPECT_EQ(ws.planeSparsity.size(), 7u);
    // BRCR must beat the sparse bit-serial reference per MAC.
    EXPECT_LT(ws.brcrAddsPerMac, ws.bscAddsPerMac);
    EXPECT_GT(ws.brcrAddsPerMac, 0.1);
    // Fractions partition the adds.
    EXPECT_GT(ws.mergeFraction, 0.0);
    EXPECT_GT(ws.reconFraction, 0.0);
    EXPECT_LT(ws.mergeFraction + ws.reconFraction, 1.01);
    EXPECT_GT(ws.bstcCompressionRatio, 1.0);
    EXPECT_GT(ws.bstcSymbolsPerByte, 0.0);
}

TEST(WeightProfile, DeterministicForSeed)
{
    const model::LlmConfig &m = model::findModel("OPT1B3");
    WeightStats a = profileWeights(m, quant::BitWidth::Int8, 7);
    WeightStats b = profileWeights(m, quant::BitWidth::Int8, 7);
    EXPECT_DOUBLE_EQ(a.brcrAddsPerMac, b.brcrAddsPerMac);
    EXPECT_DOUBLE_EQ(a.bstcCompressionRatio, b.bstcCompressionRatio);
}

TEST(WeightProfile, Int4SparserValues)
{
    // Fig 25(c): INT4 quantization raises value sparsity markedly.
    const model::LlmConfig &m = model::findModel("Llama13B");
    WeightStats w8 = profileWeights(m, quant::BitWidth::Int8, 3);
    WeightStats w4 = profileWeights(m, quant::BitWidth::Int4, 3);
    EXPECT_GT(w4.valueSparsity, w8.valueSparsity * 1.5);
    EXPECT_EQ(w4.planeSparsity.size(), 3u);
}

TEST(AttentionProfile, RangesAreRealistic)
{
    const model::LlmConfig &m = model::findModel("Llama7B");
    const model::Workload &t = model::findTask("Dolly");
    AttentionStats as = profileAttention(m, t, 0.6, 1);
    EXPECT_GT(as.bgppSelectedFraction, 0.01);
    EXPECT_LT(as.bgppSelectedFraction, 0.6);
    // BGPP prediction traffic sits below the 5-bit value baseline.
    EXPECT_LT(as.bgppPredBitsPerElem, as.valuePredBitsPerElem);
    EXPECT_GT(as.bgppPredBitsPerElem, 1.9); // at least sign+MSB round.
    EXPECT_GT(as.bgppRecall, 0.75);
}

TEST(AttentionProfile, AlphaMonotone)
{
    const model::LlmConfig &m = model::findModel("Llama7B");
    const model::Workload &t = model::findTask("MMLU");
    AttentionStats strict = profileAttention(m, t, 0.3, 2);
    AttentionStats loose = profileAttention(m, t, 0.8, 2);
    EXPECT_LE(strict.bgppSelectedFraction,
              loose.bgppSelectedFraction + 0.02);
}

TEST(AttentionProfile, ParallelBitIdenticalToSerial)
{
    // The per-query fan-out derives each query's RNG from (seed, qi)
    // and joins partial sums in index order, so every statistic must
    // be bit-identical between the serial reference path (threads=1)
    // and the thread-pool path (threads=0) — across context buckets,
    // concentrations and alphas.
    const model::LlmConfig &m = model::findModel("Llama7B");
    const struct
    {
        std::size_t promptLen;
        double concentration;
        double alpha;
    } cases[] = {
        {64, 0.10, 0.6},  {256, 0.25, 0.6},  {512, 0.15, 0.5},
        {2048, 0.10, 0.6}, {1024, 0.20, 0.8},
    };
    for (const auto &c : cases) {
        model::Workload task = model::findTask("Cola");
        task.promptLen = c.promptLen;
        task.attentionConcentration = c.concentration;
        const AttentionStats serial =
            profileAttention(m, task, c.alpha, 1, 2048, 8, 1);
        const AttentionStats pooled =
            profileAttention(m, task, c.alpha, 1, 2048, 8, 0);
        EXPECT_EQ(serial.bgppSelectedFraction,
                  pooled.bgppSelectedFraction);
        EXPECT_EQ(serial.topkFraction, pooled.topkFraction);
        EXPECT_EQ(serial.bgppPredBitsPerElem, pooled.bgppPredBitsPerElem);
        EXPECT_EQ(serial.bgppBitMacsPerElem, pooled.bgppBitMacsPerElem);
        EXPECT_EQ(serial.bgppRecall, pooled.bgppRecall);
        EXPECT_EQ(serial.valueTopkRecall, pooled.valueTopkRecall);
    }
}

/** Bit-for-bit equality of two attention profiles. */
void
expectSameBits(const AttentionStats &a, const AttentionStats &b)
{
    static_assert(std::is_trivially_copyable_v<AttentionStats>);
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(AttentionStats)), 0);
}

TEST(AttentionProfile, BatchedAlphasBitIdenticalToSingleCalls)
{
    // One synthesized set per query, evaluated at every alpha, must give
    // each alpha exactly the bits of its own single-alpha call — serial
    // and pooled alike.
    const model::LlmConfig &m = model::findModel("OPT1B3");
    const std::vector<double> alphas = {0.5, 0.55, 0.6, 0.65};
    for (const char *task : {"Dolly", "MBPP"})
        for (std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
            const model::Workload &t = model::findTask(task);
            const std::vector<AttentionStats> batch = profileAttention(
                m, t, alphas, 1, kProfileMaxContext, kProfileQueries,
                threads);
            ASSERT_EQ(batch.size(), alphas.size());
            for (std::size_t i = 0; i < alphas.size(); ++i)
                expectSameBits(batch[i],
                               profileAttention(m, t, alphas[i], 1,
                                                kProfileMaxContext,
                                                kProfileQueries, threads));
        }
}

TEST(AttentionProfile, ReadsOnlyTheHeadDimOfTheModel)
{
    // Bloom1B7 and Llama13B differ in name, hidden, heads and range but
    // share head dim 128; the attention profile must not tell them apart.
    const model::LlmConfig &bloom = model::findModel("Bloom1B7");
    const model::LlmConfig &llama = model::findModel("Llama13B");
    ASSERT_NE(bloom.name, llama.name);
    ASSERT_EQ(bloom.headDim(), llama.headDim());
    const model::Workload &t = model::findTask("MMLU");
    expectSameBits(profileAttention(bloom, t, 0.6, 3),
                   profileAttention(llama, t, 0.6, 3));
}

TEST(WeightProfile, ReadsOnlyHiddenAndRangeOfTheModel)
{
    // OPT1B3 and Bloom1B7 differ in name and heads but share hidden 2048
    // and dynamic range 14; their weight profiles must be equal.
    const model::LlmConfig &opt = model::findModel("OPT1B3");
    const model::LlmConfig &bloom = model::findModel("Bloom1B7");
    ASSERT_NE(opt.name, bloom.name);
    ASSERT_EQ(opt.hidden, bloom.hidden);
    ASSERT_EQ(opt.dynamicRange, bloom.dynamicRange);
    const WeightStats a = profileWeights(opt, quant::BitWidth::Int8, 5);
    const WeightStats b = profileWeights(bloom, quant::BitWidth::Int8, 5);
    EXPECT_EQ(a.valueSparsity, b.valueSparsity);
    EXPECT_EQ(a.meanBitSparsity, b.meanBitSparsity);
    EXPECT_EQ(a.planeSparsity, b.planeSparsity);
    EXPECT_EQ(a.brcrAddsPerMac, b.brcrAddsPerMac);
    EXPECT_EQ(a.mergeFraction, b.mergeFraction);
    EXPECT_EQ(a.reconFraction, b.reconFraction);
    EXPECT_EQ(a.camSearchesPerMac, b.camSearchesPerMac);
    EXPECT_EQ(a.bscAddsPerMac, b.bscAddsPerMac);
    EXPECT_EQ(a.bstcCompressionRatio, b.bstcCompressionRatio);
    EXPECT_EQ(a.valueCompressionRatio, b.valueCompressionRatio);
    EXPECT_EQ(a.bstcSymbolsPerByte, b.bstcSymbolsPerByte);
}

TEST(AttentionProfile, LongContextSparser)
{
    // Dolly (concentration 0.10) prunes harder than Cola (0.25).
    const model::LlmConfig &m = model::findModel("Llama7B");
    AttentionStats dolly =
        profileAttention(m, model::findTask("Dolly"), 0.6, 4);
    AttentionStats cola =
        profileAttention(m, model::findTask("Cola"), 0.6, 4);
    EXPECT_LT(dolly.bgppSelectedFraction, cola.bgppSelectedFraction);
}

} // namespace
} // namespace mcbp::accel
