/**
 * @file
 * Stage-decomposable execution plans: the public costing contract of
 * every accelerator model.
 *
 * An ExecutionPlan is what `plan(model, task)` returns instead of an
 * opaque RunMetrics: the authoritative per-phase totals (exactly what
 * `run()` used to produce — `fold()` reconstitutes that RunMetrics
 * bit-for-bit) plus a decomposition of the model's decoder stack into
 * contiguous *layer segments*, each carrying its own share of the
 * phase costs (cycles, energy, traffic, and the weight-stream vs.
 * compute split the serving engine re-composes).
 *
 * The segment contract: segments partition [0, modelLayers), and
 * within one segment the cost is uniform per layer (the decoder stack
 * is homogeneous — every analytic model here prices one layer and
 * multiplies). That is what makes the plan *decomposable*: a pipeline
 * stage covering any contiguous layer range can be priced exactly by
 * `slice()`, which rescales the overlapped segments linearly. Plans
 * produced by composed accelerators (engine::PipelineAccelerator)
 * keep per-stage segments for introspection while the totals carry
 * the cross-stage effects (fill/drain bubbles, inter-stage
 * transfers) that no single layer range owns.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "accel/report.hpp"

namespace mcbp::accel {

/**
 * Scale every additive field of a phase by @p fraction (cycles,
 * energy, traffic, raw streams, logical work). The composition rule
 * (memorySerialized) is preserved. fraction 1.0 is the bit-exact
 * identity; both composition rules commute with uniform scaling, so a
 * scaled phase re-composes consistently.
 */
PhaseMetrics scalePhase(const PhaseMetrics &phase, double fraction);

/** Cost of one contiguous layer range, per phase. */
struct PlanSegment
{
    /** Display label, e.g. "layers[0,32)" or "stage2 layers[16,24)". */
    std::string label;
    std::size_t firstLayer = 0;
    std::size_t layerCount = 0;
    /** Whole-phase cost of this segment's layers (all steps). */
    PhaseMetrics prefill;
    PhaseMetrics decode;
};

/**
 * The two-level costing contract: authoritative phase totals (what a
 * run costs end to end) plus the layer-segment decomposition.
 */
struct ExecutionPlan
{
    std::string accelerator;
    std::string modelName;
    std::string taskName;
    double clockGhz = 1.0;
    /** Chips ganged for the run (see RunMetrics::processors). */
    std::size_t processors = 1;
    /** Decoder layers of the planned model (segments partition this). */
    std::size_t modelLayers = 0;

    /**
     * Authoritative phase totals: `fold()` copies these verbatim, so a
     * plan-folding `run()` is bit-identical to composing the phases
     * directly. For composed topologies the totals include effects the
     * segments cannot own (pipeline bubbles, inter-stage transfers).
     */
    PhaseMetrics prefill;
    PhaseMetrics decode;

    /** Layer decomposition (partition of [0, modelLayers)). */
    std::vector<PlanSegment> segments;

    /** Collapse the plan into the legacy RunMetrics (exact copy of
     *  the totals — no arithmetic, hence bit-identical). */
    RunMetrics fold() const;

    /**
     * Price the contiguous layer range [firstLayer, firstLayer +
     * layerCount): each overlapped segment contributes its overlap
     * fraction (uniform per-layer cost within a segment). fatal() if
     * the range is empty or escapes [0, modelLayers).
     */
    PlanSegment slice(std::size_t firstLayer,
                      std::size_t layerCount) const;

    double totalCycles() const { return prefill.cycles + decode.cycles; }
};

/**
 * Publish an already-composed @p cost as a plan: its phase totals plus
 * one uniform full-stack layer segment (every analytic model here
 * prices one layer and multiplies, so per-layer cost is uniform and
 * the single segment is exactly decomposable — see slice()).
 */
ExecutionPlan planFromCost(std::string accelerator, std::string modelName,
                           std::string taskName, std::size_t modelLayers,
                           const RunCost &cost);

/**
 * Wrap an already-composed RunMetrics as a single-segment plan (the
 * whole stack in one uniform segment). Used by models that do not
 * price layers individually (the GPU roofline composes phase rooflines
 * directly); `fold()` returns @p rm bit-for-bit.
 */
ExecutionPlan planFromRun(const RunMetrics &rm, std::size_t modelLayers);

} // namespace mcbp::accel
