#include "engine/accelerator.hpp"

namespace mcbp::engine {

namespace {

/** Prices each shape with a full run() of its accelerator. */
class RunPreparedCost final : public PreparedCost
{
  public:
    RunPreparedCost(const Accelerator &accel, const model::LlmConfig &model,
                    const model::Workload &task)
        : accel_(accel), model_(model), task_(task)
    {
    }

    accel::RunCost
    price(std::size_t promptLen, std::size_t decodeLen) const override
    {
        return accel_.run(model_,
                          model::withLengths(task_, promptLen, decodeLen));
    }

  private:
    const Accelerator &accel_;
    model::LlmConfig model_;
    model::Workload task_;
};

} // namespace

std::unique_ptr<const PreparedCost>
Accelerator::prepare(const model::LlmConfig &model,
                     const model::Workload &task) const
{
    return std::make_unique<RunPreparedCost>(*this, model, task);
}

} // namespace mcbp::engine
