#include "accel/profile_cache.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <tuple>

#include "common/parallel.hpp"

namespace mcbp::accel {

std::size_t
contextBucket(std::size_t promptLen)
{
    const std::size_t ctx = std::min<std::size_t>(
        kProfileMaxContext, std::max<std::size_t>(64, promptLen));
    return std::bit_ceil(ctx);
}

ProfileCache::WeightKey
ProfileCache::weightKey(const model::LlmConfig &model, quant::BitWidth bw,
                        std::uint64_t seed)
{
    return {model.name, bw, seed};
}

ProfileCache::AttentionKey
ProfileCache::attentionKey(const model::LlmConfig &model,
                           const model::Workload &task, double alpha,
                           std::uint64_t seed)
{
    return {model.name, contextBucket(task.promptLen),
            std::bit_cast<std::uint64_t>(task.attentionConcentration),
            std::bit_cast<std::uint64_t>(alpha), seed};
}

bool
ProfileCache::WeightKey::operator==(const WeightKey &o) const
{
    return std::tie(model, bitWidth, seed) ==
           std::tie(o.model, o.bitWidth, o.seed);
}

bool
ProfileCache::WeightKey::operator<(const WeightKey &o) const
{
    return std::tie(model, bitWidth, seed) <
           std::tie(o.model, o.bitWidth, o.seed);
}

bool
ProfileCache::AttentionKey::operator==(const AttentionKey &o) const
{
    return std::tie(model, context, concentrationBits, alphaBits, seed) ==
           std::tie(o.model, o.context, o.concentrationBits, o.alphaBits,
                    o.seed);
}

bool
ProfileCache::AttentionKey::operator<(const AttentionKey &o) const
{
    return std::tie(model, context, concentrationBits, alphaBits, seed) <
           std::tie(o.model, o.context, o.concentrationBits, o.alphaBits,
                    o.seed);
}

std::size_t
ProfileCache::KeyHash::operator()(const WeightKey &k) const
{
    std::size_t h = std::hash<std::string>{}(k.model);
    h = hashMix(h, static_cast<std::size_t>(k.bitWidth));
    return hashMix(h, std::hash<std::uint64_t>{}(k.seed));
}

std::size_t
ProfileCache::KeyHash::operator()(const AttentionKey &k) const
{
    std::size_t h = std::hash<std::string>{}(k.model);
    h = hashMix(h, k.context);
    h = hashMix(h, std::hash<std::uint64_t>{}(k.concentrationBits));
    h = hashMix(h, std::hash<std::uint64_t>{}(k.alphaBits));
    return hashMix(h, std::hash<std::uint64_t>{}(k.seed));
}

const WeightStats &
ProfileCache::weights(const model::LlmConfig &model, quant::BitWidth bw,
                      std::uint64_t seed)
{
    return weights_.get(weightKey(model, bw, seed), [&] {
        return profileWeights(model, bw, seed);
    });
}

const AttentionStats &
ProfileCache::attentionAt(const model::LlmConfig &model,
                          const model::Workload &task, double alpha,
                          std::uint64_t seed, std::size_t threads)
{
    return attention_.get(attentionKey(model, task, alpha, seed), [&] {
        // Profile the bucket's canonical context so every workload
        // mapping to this key gets identical stats. The stats are
        // bit-identical at every thread count; the cap only bounds the
        // per-query fan-out's concurrency.
        model::Workload canonical = task;
        canonical.promptLen = contextBucket(task.promptLen);
        return profileAttention(model, canonical, alpha, seed,
                                kProfileMaxContext, kProfileQueries,
                                threads);
    });
}

const AttentionStats &
ProfileCache::attention(const model::LlmConfig &model,
                        const model::Workload &task, double alpha,
                        std::uint64_t seed)
{
    return attentionAt(model, task, alpha, seed, 0);
}

void
ProfileCache::warm(const std::vector<ProfileRequest> &requests,
                   std::size_t threads)
{
    // Deduplicate by typed cache key so the fan-out is one task per
    // distinct profile, not per announcing accelerator.
    std::map<WeightKey, const ProfileRequest *> weightJobs;
    std::map<AttentionKey, const ProfileRequest *> attentionJobs;
    for (const ProfileRequest &r : requests) {
        if (r.wantWeights)
            weightJobs.try_emplace(weightKey(r.model, r.bitWidth, r.seed),
                                   &r);
        if (r.wantAttention)
            attentionJobs.try_emplace(
                attentionKey(r.model, r.task, r.alpha, r.seed), &r);
    }
    std::vector<std::function<void()>> jobs;
    jobs.reserve(weightJobs.size() + attentionJobs.size());
    for (const auto &[key, r] : weightJobs)
        jobs.emplace_back([this, r] {
            (void)weights(r->model, r->bitWidth, r->seed);
        });
    // Propagate the cap into the per-query fan-out, so warm(…, 1) is
    // serial end to end (the bench's reference baseline and the
    // pinned-deployment escape hatch).
    for (const auto &[key, r] : attentionJobs)
        jobs.emplace_back([this, r, threads] {
            (void)attentionAt(r->model, r->task, r->alpha, r->seed,
                              threads);
        });
    parallel::parallelFor(
        jobs.size(), [&](std::size_t i) { jobs[i](); }, threads);
}

std::size_t
ProfileCache::size() const
{
    return weights_.size() + attention_.size();
}

std::uint64_t
ProfileCache::profileCalls() const
{
    return weights_.computes() + attention_.computes();
}

std::shared_ptr<ProfileCache>
makeProfileCache()
{
    return std::make_shared<ProfileCache>();
}

} // namespace mcbp::accel
