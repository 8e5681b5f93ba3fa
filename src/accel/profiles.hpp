/**
 * @file
 * Measured workload profiles feeding the accelerator models.
 *
 * Rather than hard-coding the paper's sparsity/repetition numbers, the
 * models *measure* them on synthetic weights/attention generated by
 * src/model and executed through the real BRCR/BSTC/BGPP engines, then
 * extrapolate linearly to full model scale (the quantities scale with
 * element count by construction). This keeps the figures mechanistic:
 * change the weight distribution or the group size and every downstream
 * figure moves accordingly.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "model/llm_config.hpp"
#include "model/workload.hpp"
#include "quant/quantizer.hpp"

namespace mcbp::accel {

/** Measured weight-side statistics for one model (per bit width). */
struct WeightStats
{
    double valueSparsity = 0.0;
    double meanBitSparsity = 0.0;
    std::vector<double> planeSparsity;
    /** BRCR additions per dense MAC (merge+recon+shift, both halves). */
    double brcrAddsPerMac = 0.0;
    /** Split of BRCR adds (for the pipelined cycle model). */
    double mergeFraction = 0.0;
    double reconFraction = 0.0;
    /** CAM searches per dense MAC. */
    double camSearchesPerMac = 0.0;
    /** Naive sparse bit-serial adds per MAC: planes x (1 - bs). */
    double bscAddsPerMac = 0.0;
    /** BSTC whole-weight compression ratio (paper plane policy). */
    double bstcCompressionRatio = 0.0;
    /** Value-level (Huffman-like) compression ratio baseline. */
    double valueCompressionRatio = 0.0;
    /** BSTC symbols per weight byte (decoder occupancy). */
    double bstcSymbolsPerByte = 0.0;
};

/** Measured attention/prediction statistics for one (task, model). */
struct AttentionStats
{
    /** Keys surviving BGPP (fraction of context). */
    double bgppSelectedFraction = 0.0;
    /** Keys kept by value top-k (matched budget). */
    double topkFraction = 0.0;
    /** Prediction K-bits fetched per (key element) by BGPP. */
    double bgppPredBitsPerElem = 0.0;
    /** Prediction K-bits fetched per element by value top-k (5 = 4+sign). */
    double valuePredBitsPerElem = 5.0;
    /** BGPP bit-MACs per key element. */
    double bgppBitMacsPerElem = 0.0;
    /** Recall of BGPP selection vs exact top-k. */
    double bgppRecall = 1.0;
    /** Recall of value top-k vs exact top-k. */
    double valueTopkRecall = 1.0;
};

/**
 * Profile weights of @p model: synthesizes a sample weight tile with the
 * model's dynamic range, runs the BRCR engine and BSTC compressor on it
 * and extracts per-MAC statistics.
 *
 * Of the model it reads exactly `hidden` (the tile's columns) and
 * `dynamicRange`; ProfileCache's weight key holds exactly these (plus
 * @p bw and @p seed), so a new input here must be added to that key.
 *
 * @param sample_rows rows of the sample tile (columns = model hidden).
 */
WeightStats profileWeights(const model::LlmConfig &model,
                           quant::BitWidth bw, std::uint64_t seed,
                           std::size_t sample_rows = 128);

/**
 * Profile attention of (@p task, @p model) at every BGPP alpha_r in
 * @p alphas: synthesizes attention sets at the task's concentration and
 * a capped context length, runs BGPP and the value-level baseline and
 * extracts traffic/selection statistics. Returns one AttentionStats
 * per alpha, in the order given.
 *
 * Each query's set is synthesized once and evaluated at every alpha
 * (synthesis is most of the cost and does not depend on alpha), then
 * freed before the query's result is joined. Each query's RNG derives
 * from (seed, query index), and every alpha's per-query results are
 * reduced in index order — so each alpha's statistics are bit-identical
 * to a single-alpha call, at every thread count (tests/test_profiles.cpp
 * asserts both exactly).
 *
 * Of the model it reads exactly `headDim()`, and of the task exactly
 * `promptLen` (clamped to [64, @p max_context]) and
 * `attentionConcentration`; ProfileCache's attention key holds exactly
 * these (plus alpha and @p seed), so a new input here must be added to
 * that key.
 *
 * @param alphas BGPP alpha_r values (0.6 standard, 0.5 aggressive).
 * @param threads parallel::parallelFor cap for the per-query fan-out
 *        (0 = full global pool, 1 = serial reference path).
 */
inline constexpr std::size_t kProfileMaxContext = 2048;
inline constexpr std::size_t kProfileQueries = 8;

std::vector<AttentionStats>
profileAttention(const model::LlmConfig &model, const model::Workload &task,
                 const std::vector<double> &alphas, std::uint64_t seed,
                 std::size_t max_context = kProfileMaxContext,
                 std::size_t queries = kProfileQueries,
                 std::size_t threads = 0);

/** profileAttention() at the one alpha_r @p alpha. */
AttentionStats profileAttention(const model::LlmConfig &model,
                                const model::Workload &task, double alpha,
                                std::uint64_t seed,
                                std::size_t max_context = kProfileMaxContext,
                                std::size_t queries = kProfileQueries,
                                std::size_t threads = 0);

} // namespace mcbp::accel
