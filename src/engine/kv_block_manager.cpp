#include "engine/kv_block_manager.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace mcbp::engine {

std::string
toString(KvPolicy policy)
{
    switch (policy) {
    case KvPolicy::Reserve:
        return "reserve";
    case KvPolicy::Paged:
        return "paged";
    }
    panic("unhandled KV policy");
}

KvPolicy
kvPolicyFromString(const std::string &name)
{
    for (KvPolicy p : allKvPolicies())
        if (name == toString(p))
            return p;
    fatal("unknown KV policy '" + name +
          "' (expected reserve or paged)");
}

const std::vector<KvPolicy> &
allKvPolicies()
{
    static const std::vector<KvPolicy> all = {KvPolicy::Reserve,
                                              KvPolicy::Paged};
    return all;
}

double
kvFootprintBytes(const KvOptions &kv, double bytesPerToken,
                 std::size_t promptLen, std::size_t decodeLen)
{
    // Prefill-only requests never read the cache back: nothing is
    // retained, so nothing is charged (under either policy).
    if (decodeLen == 0)
        return 0.0;
    const std::size_t tokens = promptLen + decodeLen;
    if (kv.policy == KvPolicy::Reserve)
        return bytesPerToken * static_cast<double>(tokens);
    return KvBlockManager(kv).allocatedBytes(bytesPerToken, tokens);
}

KvBlockManager::KvBlockManager(const KvOptions &opts) : opts_(opts)
{
    fatalIf(opts_.blockTokens == 0, "KV block size must be >= 1 token");
    fatalIf(opts_.lowWatermark < 0.0 || opts_.lowWatermark >= 1.0,
            "KV low watermark must be in [0, 1)");
}

void
KvBlockManager::clearIdleResidual()
{
    panicIf(std::abs(used_) > 1.0,
            "KV accounting leak: idle engine still holds allocated "
            "bytes");
    used_ = 0.0;
    needed_ = 0.0;
}

} // namespace mcbp::engine
