#include "accel/mcbp_accelerator.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "sim/hbm.hpp"
#include "sim/pe_cluster.hpp"
#include "sim/pipeline.hpp"

namespace mcbp::accel {

namespace {

/** Bit-serial adds per dense MAC for INT8 activations (attention formal
 *  compute on KV tensors, whose bit sparsity is milder than weights'). */
constexpr double kAttnAddsPerMac = 3.15; // 7 planes x (1 - 0.55).

} // namespace

McbpAccelerator::McbpAccelerator(sim::McbpConfig hw, McbpOptions opts,
                                 std::shared_ptr<ProfileCache> profiles)
    : hw_(hw), opts_(opts), profiles_(std::move(profiles))
{
    fatalIf(opts_.processors == 0, "processor count must be positive");
    if (!profiles_)
        profiles_ = sharedProfileCache();
}

std::string
McbpAccelerator::name() const
{
    if (!opts_.enableBrcr && !opts_.enableBstc && !opts_.enableBgpp)
        return "Baseline";
    if (!opts_.enableBstc || !opts_.enableBgpp || !opts_.enableBrcr) {
        std::string n = "MCBP[";
        if (opts_.enableBrcr)
            n += "R";
        if (opts_.enableBstc)
            n += "C";
        if (opts_.enableBgpp)
            n += "P";
        return n + "]";
    }
    return opts_.alpha <= 0.55 ? "MCBP(A)" : "MCBP(S)";
}

const WeightStats &
McbpAccelerator::weightStats(const model::LlmConfig &model) const
{
    return profiles_->weights(model, opts_.bitWidth, opts_.seed);
}

const AttentionStats &
McbpAccelerator::attentionStats(const model::LlmConfig &model,
                                const model::Workload &task) const
{
    return profiles_->attention(model, task, opts_.alpha, opts_.seed);
}

PhaseMetrics
McbpAccelerator::simulatePhase(const PhasePlan &plan,
                               const model::LlmConfig &m,
                               const WeightStats &ws,
                               const AttentionStats &as) const
{
    const double procs = static_cast<double>(opts_.processors);
    const double layers = static_cast<double>(m.layers);
    const double hidden = static_cast<double>(m.hidden);

    sim::PeClusterModel fabric(hw_);
    sim::Hbm hbm(hw_);
    sim::EnergyModel energy;

    // ---- Linear (QKV / O / FFN) portion, per layer per step -------------
    const double lin_macs = static_cast<double>(m.paramsPerLayer()) *
                            plan.queries * plan.batch / procs;
    // Without BRCR the fabric degrades to sparsity-aware bit-serial
    // computing (zero bits skipped, no cross-vector merging) — the
    // paper's ablation baseline.
    const double adds_per_mac =
        opts_.enableBrcr ? ws.brcrAddsPerMac : ws.bscAddsPerMac;
    const double lin_adds = lin_macs * adds_per_mac;

    sim::BrcrWork lin_work;
    if (opts_.enableBrcr) {
        lin_work.mergeAdds = lin_adds * (1.0 - ws.reconFraction);
        lin_work.reconAdds = lin_adds * ws.reconFraction;
        // CAM searches amortize over the activation tile columns.
        const double amortize = std::max(
            1.0, std::min(plan.queries * plan.batch,
                          static_cast<double>(hw_.tileN)));
        lin_work.camSearches = ws.camSearchesPerMac * lin_macs / amortize;
        lin_work.camLoads = lin_macs / amortize;
    } else {
        lin_work.mergeAdds = lin_adds;
    }
    const double lin_compute_cycles = fabric.brcrCycles(lin_work);

    // Weight traffic: once per layer if resident (prefill), every step
    // otherwise (decode).
    const double weight_cr =
        opts_.enableBstc ? ws.bstcCompressionRatio
                         : std::max(1.0, ws.valueCompressionRatio);
    const double weight_bytes_raw =
        static_cast<double>(m.paramsPerLayer()) / procs;
    const double weight_bytes = weight_bytes_raw / weight_cr;
    const double weight_load_cycles =
        hbm.read(static_cast<std::uint64_t>(weight_bytes), 0.95).cycles;

    // Decompression throughput: BSTC's two-state decoder retires one
    // symbol per lane-cycle (1-bit CMP + SIPO, Fig 15b). The value-level
    // Huffman baseline needs a tree-walk per variable-length symbol —
    // about half the symbol rate within the same decoder area — and one
    // symbol per weight value.
    double decode_cycles = 0.0;
    if (opts_.enableBstc) {
        decode_cycles = fabric.codecCycles(
            {ws.bstcSymbolsPerByte * weight_bytes_raw});
    } else {
        decode_cycles = fabric.codecCycles({weight_bytes_raw * 2.0});
    }

    // Activation traffic per layer per step.
    const double act_bytes = (2.0 * hidden + static_cast<double>(m.ffn)) *
                             plan.queries * plan.batch / procs;
    const double act_cycles =
        static_cast<double>(act_bytes) / hbm.bytesPerCycle();

    // ---- Attention portion ----------------------------------------------
    // Prediction scans all (query, key) pairs at reduced precision.
    const double pair_elems =
        plan.queries * plan.context * hidden * plan.batch / procs;
    const double pred_bits_per_elem = opts_.enableBgpp
                                          ? as.bgppPredBitsPerElem
                                          : as.valuePredBitsPerElem;
    const double selected = opts_.enableBgpp ? as.bgppSelectedFraction
                                             : as.topkFraction;

    // KV residency: prefill tiles K/V through the token SRAM (re-reads
    // scale with query tiling); decode streams the cache per token.
    const double kv_sweeps = kvSweeps(hw_, plan, hidden);
    const double pred_bytes = plan.context * hidden *
                              (pred_bits_per_elem / 8.0) * kv_sweeps *
                              (plan.kvOnChipTiling ? 1.0 : plan.batch) / procs;
    const double pred_bit_macs =
        opts_.enableBgpp ? pair_elems * as.bgppBitMacsPerElem
                         : pair_elems; // 4-bit estimate ~ 1 op/elem.
    const double pred_compute_cycles =
        opts_.enableBgpp
            ? fabric.bgppCycles({pred_bit_macs, plan.queries * plan.batch *
                                                    plan.context / procs})
            : fabric.denseMacCycles(pair_elems / 2.0);
    const double pred_load_cycles =
        static_cast<double>(pred_bytes) / hbm.bytesPerCycle();
    const double pred_cycles =
        std::max(pred_compute_cycles, pred_load_cycles);

    // Formal sparse attention over the selected keys.
    const double attn_macs =
        2.0 * plan.queries * plan.context * hidden * plan.batch * selected /
        procs;
    const double attn_adds = attn_macs * kAttnAddsPerMac;
    const double attn_cycles = fabric.brcrCycles({attn_adds, 0, 0, 0});
    const double kv_bytes = 2.0 * plan.context * hidden * selected *
                                kv_sweeps *
                                (plan.kvOnChipTiling ? 1.0 : plan.batch) /
                                procs +
                            2.0 * hidden * plan.queries * plan.batch / procs;
    const double kv_cycles =
        hbm.read(static_cast<std::uint64_t>(kv_bytes), 0.5).cycles;

    // SFU: softmax over selected scores + norms/activation functions.
    const double sfu_ops = plan.queries * plan.context * selected * plan.batch *
                               2.0 / procs +
                           6.0 * plan.queries * plan.batch * hidden / procs;
    const double sfu_cycles = sfu_ops / 64.0; // 64-lane FP16 SFU.

    // ---- Compose the layer ----------------------------------------------
    sim::StageCycles stages;
    stages.weightLoad = plan.weightResident
                            ? weight_load_cycles / std::max(1.0, plan.steps)
                            : weight_load_cycles;
    stages.weightDecode = plan.weightResident
                              ? decode_cycles / std::max(1.0, plan.steps)
                              : decode_cycles;
    stages.linearCompute = lin_compute_cycles;
    stages.prediction = pred_cycles;
    stages.kvLoad = kv_cycles;
    stages.attention = attn_cycles;
    stages.sfu = sfu_cycles;
    stages.actLoad = act_cycles;
    const sim::LayerLatency lat = sim::composeLayer(stages, hw_);

    PhaseMetrics out;
    out.cycles = lat.totalCycles * layers * plan.steps;
    out.denseMacs = (lin_macs + 2.0 * plan.queries * plan.context * hidden *
                                    plan.batch / procs) *
                    layers * plan.steps * procs;
    out.executedAdds = (lin_adds + attn_adds + pred_bit_macs) * layers *
                       plan.steps * procs;

    // Latency attribution (Fig 1a / Fig 19 style): the linear segment is
    // charged to whichever pipeline stage bounds it. HBM load and BSTC
    // decode are both weight-path stages (delivering weights to the
    // PEs); their cost is per weight stream, not per batched token —
    // the serving engine relies on this split to amortize them.
    const double weight_path =
        std::max(stages.weightLoad, stages.weightDecode);
    if (weight_path >= stages.linearCompute &&
        weight_path >= stages.actLoad) {
        out.weightLoadCycles = lat.linearPart * layers * plan.steps;
        out.gemmCycles = 0.0;
    } else {
        out.gemmCycles = lat.linearPart * layers * plan.steps;
        out.weightLoadCycles = 0.0;
    }
    out.kvLoadCycles = lat.attentionPart * layers * plan.steps;
    out.otherCycles = lat.exposedSfu * layers * plan.steps;
    out.weightStreamCycles =
        std::max(stages.weightLoad, stages.weightDecode) * layers *
        plan.steps;
    out.linearWorkCycles =
        std::max(stages.linearCompute, stages.actLoad) * layers *
        plan.steps;

    // Traffic (whole phase, per processor).
    const double weight_traffic =
        weight_bytes * layers * (plan.weightResident ? 1.0 : plan.steps);
    out.traffic.weightBytes = weight_traffic;
    out.traffic.predictionBytes = pred_bytes * layers * plan.steps;
    out.traffic.kvBytes = kv_bytes * layers * plan.steps;
    out.traffic.actBytes = act_bytes * layers * plan.steps;

    // Energy.
    const double steps_l = layers * plan.steps;
    sim::EnergyBreakdown &e = out.energy;
    e.computePj = energy.addsEnergy(static_cast<std::uint64_t>(
                      (lin_adds + attn_adds) * steps_l)) +
                  energy.shiftEnergy(static_cast<std::uint64_t>(
                      lin_adds * 0.15 * steps_l));
    e.camPj = energy.camEnergy(
        static_cast<std::uint64_t>(lin_work.camSearches * steps_l),
        static_cast<std::uint64_t>(lin_work.camLoads * steps_l));
    const double decode_symbols =
        opts_.enableBstc ? ws.bstcSymbolsPerByte * weight_bytes_raw
                         : weight_bytes_raw;
    e.codecPj = energy.codecEnergy(
        static_cast<std::uint64_t>(decode_symbols * steps_l *
                                   (plan.weightResident ? 1.0 / plan.steps
                                                      : 1.0)));
    // BGPP spends 1-bit AND/adder-tree ops; the value-level baseline
    // spends a 4-bit x 8-bit MAC per key element.
    e.bgppPj = opts_.enableBgpp
                   ? energy.bgppEnergy(static_cast<std::uint64_t>(
                         pred_bit_macs * steps_l))
                   : energy.int4MacEnergy(static_cast<std::uint64_t>(
                         pred_bit_macs * steps_l));
    e.dramPj = energy.dramEnergy(static_cast<std::uint64_t>(
        weight_traffic + out.traffic.predictionBytes +
        out.traffic.kvBytes + out.traffic.actBytes));
    // SRAM traffic: decompressed weights and activation/KV staging in
    // the large arrays, plus the per-addition operand reads the AMUs
    // issue against the banked activation buffers.
    e.sramPj = energy.sramEnergy(
                   static_cast<std::uint64_t>(
                       (weight_bytes_raw *
                            (plan.weightResident ? 1.0 : plan.steps) * layers +
                        2.0 * (out.traffic.actBytes +
                               out.traffic.kvBytes))),
                   true) +
               energy.operandEnergy(
                   static_cast<std::uint64_t>(lin_adds * steps_l));
    e.sfuPj = energy.sfuEnergy(
        static_cast<std::uint64_t>(sfu_ops * steps_l));
    // Bit reordering only appears when the storage format is value-level
    // (BSTC off): every *decompressed* weight bit is staged through the
    // reorder buffer before it can feed the bit-serial PEs.
    if (!opts_.enableBstc) {
        const double raw_traffic =
            weight_bytes_raw * layers *
            (plan.weightResident ? 1.0 : plan.steps);
        e.bitReorderPj = energy.bitReorderEnergy(
            static_cast<std::uint64_t>(raw_traffic * 8.0));
    }
    return out;
}

RunCost
McbpAccelerator::cost(const model::LlmConfig &model,
                      const model::Workload &task, const WeightStats &ws,
                      const AttentionStats &as) const
{
    return composeCost(task, hw_.clockGhz, opts_.processors,
                       [&](const PhasePlan &p) {
                           return simulatePhase(p, model, ws, as);
                       });
}

ExecutionPlan
McbpAccelerator::plan(const model::LlmConfig &model,
                      const model::Workload &task) const
{
    return planFromCost(name(), model.name, task.name, model.layers,
                        cost(model, task, weightStats(model),
                             attentionStats(model, task)));
}

RunMetrics
McbpAccelerator::run(const model::LlmConfig &model,
                     const model::Workload &task) const
{
    return plan(model, task).fold();
}

McbpOptions
mcbpStandardOptions(std::size_t processors)
{
    McbpOptions o;
    o.alpha = 0.6;
    o.processors = processors;
    return o;
}

McbpAccelerator
makeMcbpStandard(std::size_t processors)
{
    return McbpAccelerator(sim::defaultConfig(),
                           mcbpStandardOptions(processors));
}

McbpOptions
mcbpAggressiveOptions(std::size_t processors)
{
    McbpOptions o;
    o.alpha = 0.5;
    o.processors = processors;
    return o;
}

McbpAccelerator
makeMcbpAggressive(std::size_t processors)
{
    return McbpAccelerator(sim::defaultConfig(),
                           mcbpAggressiveOptions(processors));
}

McbpOptions
mcbpBaselineOptions(std::size_t processors)
{
    McbpOptions o;
    o.enableBrcr = false;
    o.enableBstc = false;
    o.enableBgpp = false;
    o.processors = processors;
    return o;
}

McbpAccelerator
makeMcbpBaseline(std::size_t processors)
{
    return McbpAccelerator(sim::defaultConfig(),
                           mcbpBaselineOptions(processors));
}

} // namespace mcbp::accel
