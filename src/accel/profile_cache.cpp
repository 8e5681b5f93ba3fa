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
    return {model.hidden, std::bit_cast<std::uint64_t>(model.dynamicRange),
            bw, seed};
}

ProfileCache::AttentionKey
ProfileCache::attentionKey(const model::LlmConfig &model,
                           const model::Workload &task, double alpha,
                           std::uint64_t seed)
{
    return {model.headDim(), contextBucket(task.promptLen),
            std::bit_cast<std::uint64_t>(task.attentionConcentration), seed,
            std::bit_cast<std::uint64_t>(alpha)};
}

bool
ProfileCache::WeightKey::operator==(const WeightKey &o) const
{
    return std::tie(hidden, dynamicRangeBits, bitWidth, seed) ==
           std::tie(o.hidden, o.dynamicRangeBits, o.bitWidth, o.seed);
}

bool
ProfileCache::WeightKey::operator<(const WeightKey &o) const
{
    return std::tie(hidden, dynamicRangeBits, bitWidth, seed) <
           std::tie(o.hidden, o.dynamicRangeBits, o.bitWidth, o.seed);
}

bool
ProfileCache::AttentionKey::operator==(const AttentionKey &o) const
{
    return sameSet(o) && alphaBits == o.alphaBits;
}

bool
ProfileCache::AttentionKey::operator<(const AttentionKey &o) const
{
    return std::tie(headDim, context, concentrationBits, seed, alphaBits) <
           std::tie(o.headDim, o.context, o.concentrationBits, o.seed,
                    o.alphaBits);
}

bool
ProfileCache::AttentionKey::sameSet(const AttentionKey &o) const
{
    return std::tie(headDim, context, concentrationBits, seed) ==
           std::tie(o.headDim, o.context, o.concentrationBits, o.seed);
}

std::size_t
ProfileCache::KeyHash::operator()(const WeightKey &k) const
{
    std::size_t h = std::hash<std::size_t>{}(k.hidden);
    h = hashMix(h, std::hash<std::uint64_t>{}(k.dynamicRangeBits));
    h = hashMix(h, static_cast<std::size_t>(k.bitWidth));
    return hashMix(h, std::hash<std::uint64_t>{}(k.seed));
}

std::size_t
ProfileCache::KeyHash::operator()(const AttentionKey &k) const
{
    std::size_t h = std::hash<std::size_t>{}(k.headDim);
    h = hashMix(h, k.context);
    h = hashMix(h, std::hash<std::uint64_t>{}(k.concentrationBits));
    h = hashMix(h, std::hash<std::uint64_t>{}(k.seed));
    return hashMix(h, std::hash<std::uint64_t>{}(k.alphaBits));
}

const WeightStats &
ProfileCache::weights(const model::LlmConfig &model, quant::BitWidth bw,
                      std::uint64_t seed)
{
    return weights_.get(weightKey(model, bw, seed), [&] {
        return profileWeights(model, bw, seed);
    });
}

namespace {

/** The workload an attention key profiles: the bucket's canonical
 *  context, so every workload mapping to the key gets identical stats. */
model::Workload
canonicalTask(const model::Workload &task)
{
    model::Workload canonical = task;
    canonical.promptLen = contextBucket(task.promptLen);
    return canonical;
}

} // namespace

const AttentionStats &
ProfileCache::attentionAt(const model::LlmConfig &model,
                          const model::Workload &task, double alpha,
                          std::uint64_t seed, std::size_t threads)
{
    // The stats are bit-identical at every thread count; the cap only
    // bounds the per-query fan-out's concurrency.
    return attention_.get(attentionKey(model, task, alpha, seed), [&] {
        return profileAttention(model, canonicalTask(task), alpha, seed,
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
ProfileCache::attentionSet(const ProfileRequest &request,
                           const std::vector<AttentionKey> &keys,
                           std::size_t threads)
{
    std::vector<double> alphas;
    alphas.reserve(keys.size());
    for (const AttentionKey &key : keys)
        alphas.push_back(std::bit_cast<double>(key.alphaBits));
    // The batch runs inside the first still-cold key's compute, so
    // racers on that key wait for it instead of profiling it again;
    // every key is then published through its own singleflight slot.
    std::vector<AttentionStats> stats;
    for (std::size_t i = 0; i < keys.size(); ++i)
        (void)attention_.get(keys[i], [&] {
            if (stats.empty())
                stats = profileAttention(request.model,
                                         canonicalTask(request.task), alphas,
                                         request.seed, kProfileMaxContext,
                                         kProfileQueries, threads);
            return stats[i];
        });
}

void
ProfileCache::warm(const std::vector<ProfileRequest> &requests,
                   std::size_t threads)
{
    // Deduplicate by typed cache key and drop keys already ready, so
    // the fan-out is one job per cold profile (or attention set), not
    // per announcing accelerator, and a warm cache submits no job.
    std::map<WeightKey, const ProfileRequest *> weightJobs;
    std::map<AttentionKey, const ProfileRequest *> attentionJobs;
    for (const ProfileRequest &r : requests) {
        if (r.wantWeights) {
            const WeightKey key = weightKey(r.model, r.bitWidth, r.seed);
            if (!weights_.ready(key))
                weightJobs.try_emplace(key, &r);
        }
        if (r.wantAttention) {
            const AttentionKey key =
                attentionKey(r.model, r.task, r.alpha, r.seed);
            if (!attention_.ready(key))
                attentionJobs.try_emplace(key, &r);
        }
    }
    std::vector<std::function<void()>> jobs;
    jobs.reserve(weightJobs.size() + attentionJobs.size());
    for (const auto &[key, r] : weightJobs)
        jobs.emplace_back([this, r] {
            (void)weights(r->model, r->bitWidth, r->seed);
        });
    // Keys of one set are adjacent in key order (alpha sorts last).
    // Propagate the cap into the per-query fan-out, so warm(…, 1) is
    // serial end to end (the bench's reference baseline and the
    // pinned-deployment escape hatch).
    for (auto first = attentionJobs.begin(); first != attentionJobs.end();) {
        std::vector<AttentionKey> keys;
        auto last = first;
        while (last != attentionJobs.end() &&
               last->first.sameSet(first->first))
            keys.push_back((last++)->first);
        jobs.emplace_back([this, r = first->second, keys = std::move(keys),
                           threads] { attentionSet(*r, keys, threads); });
        first = last;
    }
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

std::shared_ptr<ProfileCache>
sharedProfileCache()
{
    static const std::shared_ptr<ProfileCache> cache = makeProfileCache();
    return cache;
}

} // namespace mcbp::accel
