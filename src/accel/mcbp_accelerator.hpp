/**
 * @file
 * End-to-end MCBP accelerator model: combines the measured BRCR/BSTC/BGPP
 * profiles with the cycle/energy/area models of src/sim under the Fig 10
 * pipelined workflow, producing RunMetrics for any (model, task) pair.
 *
 * The three techniques are individually switchable (the Fig 19/21/24
 * ablations); with all three off the model degrades to the paper's
 * baseline: vanilla bit-serial compute + value-level compression +
 * value-level top-k prediction.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "accel/phase_plan.hpp"
#include "accel/profile_cache.hpp"
#include "accel/profiles.hpp"
#include "accel/report.hpp"
#include "model/llm_config.hpp"
#include "model/workload.hpp"
#include "sim/mcbp_config.hpp"

namespace mcbp::accel {

/** MCBP run options (technique toggles + operating point). */
struct McbpOptions
{
    bool enableBrcr = true;
    bool enableBstc = true;
    bool enableBgpp = true;
    /** alpha_r: 0.6 = standard (0% loss), 0.5 = aggressive (1% loss). */
    double alpha = 0.6;
    /** Number of ganged processors (148 for the A100 comparison). */
    std::size_t processors = 1;
    std::uint64_t seed = 1;
    quant::BitWidth bitWidth = quant::BitWidth::Int8;
};

/** The MCBP accelerator. */
class McbpAccelerator
{
  public:
    /**
     * @param profiles shared profile cache; nullptr uses the
     * process-wide sharedProfileCache(). Copies of this accelerator
     * share the same (thread-safe) cache, as do all accelerators built
     * by one engine::Registry.
     */
    explicit McbpAccelerator(
        sim::McbpConfig hw = sim::defaultConfig(), McbpOptions opts = {},
        std::shared_ptr<ProfileCache> profiles = nullptr);

    const sim::McbpConfig &hardware() const { return hw_; }
    const McbpOptions &options() const { return opts_; }

    /** Display name, e.g. "MCBP", "MCBP(A)", "Baseline". */
    std::string name() const;

    /**
     * Plan one (model, task) inference: phase totals plus the layer
     * decomposition (execution_plan.hpp). run() folds this plan.
     */
    ExecutionPlan plan(const model::LlmConfig &model,
                       const model::Workload &task) const;

    /**
     * The phase totals of (model, task) from already-resolved profiles
     * @p ws / @p as (weightStats(model), attentionStats(model, task)):
     * what plan() publishes, without the plan. plan() and the serving
     * engine's prepared cost (engine::McbpAdapter::prepare) both price
     * through this one function.
     */
    RunCost cost(const model::LlmConfig &model, const model::Workload &task,
                 const WeightStats &ws, const AttentionStats &as) const;

    /** Simulate one (model, task) inference run (= plan().fold()). */
    RunMetrics run(const model::LlmConfig &model,
                   const model::Workload &task) const;

    /** The weight profile used for @p model (cached; for benches). */
    const WeightStats &weightStats(const model::LlmConfig &model) const;

    /** The attention profile used for (@p model, @p task). */
    const AttentionStats &
    attentionStats(const model::LlmConfig &model,
                   const model::Workload &task) const;

    /** The (thread-safe) profile cache backing this accelerator. */
    const std::shared_ptr<ProfileCache> &profileCache() const
    {
        return profiles_;
    }

  private:
    PhaseMetrics simulatePhase(const PhasePlan &plan,
                               const model::LlmConfig &model,
                               const WeightStats &ws,
                               const AttentionStats &as) const;

    sim::McbpConfig hw_;
    McbpOptions opts_;
    std::shared_ptr<ProfileCache> profiles_;
};

/** Paper's "standard" configuration (alpha 0.6, all techniques). */
McbpOptions mcbpStandardOptions(std::size_t processors = 1);
McbpAccelerator makeMcbpStandard(std::size_t processors = 1);

/** Paper's "aggressive" configuration (alpha 0.5). */
McbpOptions mcbpAggressiveOptions(std::size_t processors = 1);
McbpAccelerator makeMcbpAggressive(std::size_t processors = 1);

/** The ablation baseline (all techniques off). */
McbpOptions mcbpBaselineOptions(std::size_t processors = 1);
McbpAccelerator makeMcbpBaseline(std::size_t processors = 1);

} // namespace mcbp::accel
