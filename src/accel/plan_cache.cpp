#include "accel/plan_cache.hpp"

#include <bit>
#include <tuple>

namespace mcbp::accel {

PlanCache::Identity
PlanCache::intern(const std::string &name, const std::string &configSummary)
{
    MutexLock lock(internMutex_);
    const auto next = static_cast<std::uint32_t>(identities_.size());
    return Identity{
        identities_.try_emplace({name, configSummary}, next).first->second};
}

PlanCache::Key
PlanCache::keyOf(Identity identity, const model::LlmConfig &model,
                 const model::Workload &task)
{
    return {identity.id,
            model.name,
            task.name,
            task.promptLen,
            task.decodeLen,
            task.batch,
            task.kind,
            std::bit_cast<std::uint64_t>(task.attentionConcentration)};
}

bool
PlanCache::Key::operator==(const Key &o) const
{
    return std::tie(identity, model, task, promptLen, decodeLen, batch,
                    kind, concentrationBits) ==
           std::tie(o.identity, o.model, o.task, o.promptLen, o.decodeLen,
                    o.batch, o.kind, o.concentrationBits);
}

std::size_t
PlanCache::KeyHash::operator()(const Key &k) const
{
    std::size_t h = std::hash<std::uint32_t>{}(k.identity);
    h = hashMix(h, std::hash<std::string>{}(k.model));
    h = hashMix(h, std::hash<std::string>{}(k.task));
    h = hashMix(h, k.promptLen);
    h = hashMix(h, k.decodeLen);
    h = hashMix(h, k.batch);
    h = hashMix(h, static_cast<std::size_t>(k.kind));
    return hashMix(h, std::hash<std::uint64_t>{}(k.concentrationBits));
}

std::shared_ptr<PlanCache>
makePlanCache()
{
    return std::make_shared<PlanCache>();
}

} // namespace mcbp::accel
