#include "engine/registry.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <initializer_list>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "engine/adapters.hpp"
#include "engine/cluster.hpp"
#include "engine/fleet.hpp"
#include "engine/pipeline.hpp"

namespace mcbp::engine {

namespace {

/** ASCII lower-casing: the spec grammar is plain ASCII, so no locale. */
std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        if (c >= 'A' && c <= 'Z')
            c = static_cast<char>(c - 'A' + 'a');
    return out;
}

/**
 * Parsed `name[:key=value,...]` spec. A spec names a few options, so
 * they sit in one flat vector in spec order (a repeated key keeps its
 * last value) and are found by a linear scan.
 */
struct ParsedSpec
{
    using Options = std::vector<std::pair<std::string, std::string>>;

    std::string name;
    Options options;

    Options::iterator find(std::string_view key)
    {
        return std::find_if(options.begin(), options.end(),
                            [key](const auto &kv) { return kv.first == key; });
    }
};

ParsedSpec
parseSpec(const std::string &spec)
{
    ParsedSpec p;
    const std::string_view all(spec);
    const std::size_t colon = all.find(':');
    p.name = toLower(all.substr(0, colon));
    fatalIf(p.name.empty(), "empty accelerator spec");
    if (colon == std::string_view::npos)
        return p;
    std::string_view rest = all.substr(colon + 1);
    while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string_view kv = rest.substr(0, comma);
        const std::size_t eq = kv.find('=');
        if (eq == std::string_view::npos || eq == 0)
            fatal("malformed option '" + std::string(kv) + "' in spec '" +
                  spec + "'");
        std::string key = toLower(kv.substr(0, eq));
        if (auto it = p.find(key); it != p.options.end())
            it->second = kv.substr(eq + 1);
        else
            p.options.emplace_back(std::move(key), kv.substr(eq + 1));
        if (comma == std::string_view::npos)
            break;
        rest.remove_prefix(comma + 1);
    }
    return p;
}

double
toDouble(const std::string &key, const std::string &value)
{
    double v = 0.0;
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (ec != std::errc() || ptr != end)
        fatal("bad numeric value '" + value + "' for option '" + key +
              "'");
    return v;
}

bool
toBool(const std::string &key, const std::string &value)
{
    const std::string v = toLower(value); // grammar is case-insensitive.
    if (v == "0" || v == "off" || v == "false")
        return false;
    if (v == "1" || v == "on" || v == "true")
        return true;
    fatal("bad boolean value '" + value + "' for option '" + key + "'");
}

std::size_t
toCount(const std::string &key, const std::string &value)
{
    const double v = toDouble(key, value);
    if (v < 0.0 || v != std::floor(v) || v > 1e18)
        fatal("option '" + key + "' needs a non-negative integer, got '" +
              value + "'");
    return static_cast<std::size_t>(v);
}

/** Topology keys every design accepts (consumed before dispatch). */
const std::vector<std::string> &
topologyKeys()
{
    static const std::vector<std::string> keys = {
        "tp",      "tp2",    "pp",   "mb",       "dp",      "route",
        "linkgbs", "linkpj", "hops", "linkgbs2", "linkpj2", "hops2"};
    return keys;
}

/**
 * Consume recognized keys; whatever remains is a user error. ALL
 * leftover keys are reported in one message, together with the keys
 * this design does accept (its own plus the topology keys), so a
 * multi-typo spec is fixed in one round trip.
 */
void
rejectUnknown(const ParsedSpec &p,
              std::initializer_list<std::string_view> designKeys)
{
    if (p.options.empty())
        return;
    std::vector<std::string> accepted(designKeys.begin(), designKeys.end());
    for (const std::string &key : topologyKeys())
        accepted.push_back(key);
    std::sort(accepted.begin(), accepted.end());

    std::vector<std::string> leftover;
    for (const auto &kv : p.options)
        leftover.push_back(kv.first);
    std::sort(leftover.begin(), leftover.end());
    std::string unknown;
    for (const std::string &key : leftover)
        unknown += (unknown.empty() ? "'" : ", '") + key + "'";
    std::string known;
    for (const std::string &key : accepted)
        known += (known.empty() ? "" : ", ") + key;
    fatal("unknown option" + std::string(p.options.size() > 1 ? "s " : " ") +
          unknown + " for accelerator '" + p.name +
          "'; accepted keys: " + known);
}

Capabilities
baselineCaps(bool gemm, bool attn, bool weight, bool kv, bool decode,
             bool bit)
{
    Capabilities c;
    c.gemmOptimized = gemm;
    c.attentionOptimized = attn;
    c.weightTrafficOptimized = weight;
    c.kvTrafficOptimized = kv;
    c.decodeOptimized = decode;
    c.bitLevel = bit;
    return c;
}

/**
 * One SOTA baseline design: the single source of truth for its spec
 * name, display name, trait derivation (and therefore which options
 * apply), and capability flags. knownSpecs(), spec lookup and option
 * validation all derive from this table, so adding a design is one
 * entry here.
 *
 * Capability flags follow paper Table 1 (Sanger and FACT reduce
 * attention compute but not formal KV-cache traffic there; the 'low'
 * entries for Energon/SpAtten map to yes).
 */
struct BaselineDef
{
    const char *spec;
    const char *display;
    /** Exactly one of these is set (none for the dense reference). */
    accel::BaselineTraits (*fromAttention)(const accel::AttentionStats &);
    accel::BaselineTraits (*fromWeights)(const accel::WeightStats &);
    Capabilities caps;
};

const std::vector<BaselineDef> &
baselineDefs()
{
    static const std::vector<BaselineDef> defs = {
        {"systolic", "Systolic", nullptr, nullptr,
         baselineCaps(false, false, false, false, false, false)},
        {"sanger", "Sanger", accel::makeSanger, nullptr,
         baselineCaps(false, true, false, false, false, false)},
        {"spatten", "Spatten", accel::makeSpatten, nullptr,
         baselineCaps(true, true, false, true, true, false)},
        {"fact", "FACT", accel::makeFact, nullptr,
         baselineCaps(true, true, true, false, false, false)},
        {"sofa", "SOFA", accel::makeSofa, nullptr,
         baselineCaps(false, true, false, true, false, false)},
        {"energon", "Energon", accel::makeEnergon, nullptr,
         baselineCaps(false, true, false, true, false, false)},
        {"bitwave", "Bitwave", nullptr, accel::makeBitwave,
         baselineCaps(true, false, true, false, true, true)},
        {"fusekna", "FuseKNA", nullptr, accel::makeFuseKna,
         baselineCaps(true, false, true, false, true, true)},
        {"cambricon-c", "Cambricon-C", nullptr, accel::makeCambriconC,
         baselineCaps(true, false, true, false, true, false)},
    };
    return defs;
}

const BaselineDef *
findBaseline(std::string name)
{
    if (name == "cambricon") // alias
        name = "cambricon-c";
    for (const BaselineDef &d : baselineDefs())
        if (name == d.spec)
            return &d;
    return nullptr;
}

} // namespace

Registry::Registry(sim::McbpConfig hw)
    : hw_(hw), profiles_(accel::makeProfileCache())
{
}

std::unique_ptr<Accelerator>
Registry::make(const std::string &spec) const
{
    ParsedSpec p = parseSpec(spec);

    // Topology options apply to every design: `tp=N` shards the chip
    // N-way (tensor parallel) behind a ClusterAccelerator, `tp2=M`
    // tiers M such groups over the boundary fabric (hierarchical
    // collectives — a nested cluster), `pp=N` splits the layers across
    // N stages behind a PipelineAccelerator over the cluster(s) (stage
    // partitioning divides layer segments, so the three compose),
    // `mb=` micro-batches the pipeline's prefill, `dp=N` replicates
    // the whole group N ways behind a FleetAccelerator with `route=`
    // replica selection, and the link knobs refine the fabrics: tier 1
    // (`linkgbs`/`linkpj`/`hops`) is the intra-group all-reduce ring,
    // tier 2 (`linkgbs2`/`linkpj2`/`hops2`) the boundary fabric the
    // outer tensor tier and the pipeline's stage handoffs share —
    // each requires the fabric it refines to exist.
    ClusterOptions cluster;
    bool clustered = false;
    if (auto it = p.find("tp"); it != p.options.end()) {
        clustered = true;
        cluster.tensorParallel = toCount("tp", it->second);
        p.options.erase(it);
        fatalIf(cluster.tensorParallel == 0,
                "tp must be >= 1 in spec '" + spec + "'");
    }
    ClusterOptions outerCluster;
    bool tiered = false;
    if (auto it = p.find("tp2"); it != p.options.end()) {
        // An outer tier needs inner tp >= 2 groups to join; anything
        // else would be a silent no-op or an ambiguous flat degree.
        fatalIf(!clustered || cluster.tensorParallel <= 1,
                "option 'tp2" +
                    std::string(clustered
                                    ? "' has no effect at tp=1 in spec '"
                                    : "' requires tp= in spec '") +
                    spec + "'");
        outerCluster.tensorParallel = toCount("tp2", it->second);
        p.options.erase(it);
        fatalIf(outerCluster.tensorParallel == 0,
                "tp2 must be >= 1 in spec '" + spec + "'");
        tiered = outerCluster.tensorParallel > 1;
    }
    PipelineOptions pipe;
    bool pipelined = false;
    if (auto it = p.find("pp"); it != p.options.end()) {
        pipelined = true;
        pipe.pipelineParallel = toCount("pp", it->second);
        p.options.erase(it);
        fatalIf(pipe.pipelineParallel == 0,
                "pp must be >= 1 in spec '" + spec + "'");
    }
    if (auto it = p.find("mb"); it != p.options.end()) {
        // Micro-batching exists only inside a stage pipeline; at
        // pp<=1 the knob would be a silent no-op, so reject it by
        // presence (like the link knobs below).
        fatalIf(!pipelined || pipe.pipelineParallel <= 1,
                "option 'mb" +
                    std::string(pipelined
                                    ? "' has no effect at pp=1 in spec '"
                                    : "' requires pp= in spec '") +
                    spec + "'");
        pipe.microBatches = toCount("mb", it->second);
        p.options.erase(it);
        fatalIf(pipe.microBatches == 0,
                "mb must be >= 1 in spec '" + spec + "'");
    }
    // dp=: data-parallel replica fleet above the serving engine
    // (engine/fleet.hpp); route= picks the replica-selection policy
    // and would be a silent no-op with a single replica.
    FleetOptions fleetOpts;
    bool dataParallel = false;
    if (auto it = p.find("dp"); it != p.options.end()) {
        dataParallel = true;
        fleetOpts.dataParallel = toCount("dp", it->second);
        p.options.erase(it);
        fatalIf(fleetOpts.dataParallel == 0,
                "dp must be >= 1 in spec '" + spec + "'");
    }
    if (auto it = p.find("route"); it != p.options.end()) {
        fatalIf(!dataParallel || fleetOpts.dataParallel <= 1,
                "option 'route" +
                    std::string(dataParallel
                                    ? "' has no effect at dp=1 in spec '"
                                    : "' requires dp= in spec '") +
                    spec + "'");
        fleetOpts.policy = replicaPolicyFromString(toLower(it->second));
        p.options.erase(it);
    }
    const bool has_fabric =
        (clustered && cluster.tensorParallel > 1) ||
        (pipelined && pipe.pipelineParallel > 1) || tiered;
    // The tier-2 (boundary) fabric exists whenever the topology
    // crosses group boundaries: an outer tensor tier or stage
    // handoffs between pipeline stages.
    const bool has_tier2 =
        tiered || (pipelined && pipe.pipelineParallel > 1);
    if (has_fabric) {
        auto takeLink = [&p](const char *key, double fallback,
                             double min) {
            auto it = p.find(key);
            if (it == p.options.end())
                return fallback;
            const double v = toDouble(key, it->second);
            fatalIf(v < min, "option '" + std::string(key) +
                                 "' must be " +
                                 (min > 0.0 ? "positive"
                                            : "non-negative"));
            p.options.erase(it);
            return v;
        };
        // Only the bandwidth is a divisor; zero link energy or hop
        // latency are meaningful ideal-fabric points. Tier 1 is the
        // intra-group all-reduce ring; the boundary fabric (outer
        // tensor tier + pp= stage handoffs) inherits the same link
        // technology unless the *2 knobs override it, so specs
        // without them price exactly as before.
        sim::InterconnectConfig link;
        link.linkGBs = takeLink("linkgbs", link.linkGBs, 1e-12);
        link.pJPerBit = takeLink("linkpj", link.pJPerBit, 0.0);
        link.hopCycles = takeLink("hops", link.hopCycles, 0.0);
        cluster.interconnect = link;
        sim::InterconnectConfig link2 = link;
        if (has_tier2) {
            link2.linkGBs = takeLink("linkgbs2", link2.linkGBs, 1e-12);
            link2.pJPerBit = takeLink("linkpj2", link2.pJPerBit, 0.0);
            link2.hopCycles = takeLink("hops2", link2.hopCycles, 0.0);
        }
        outerCluster.interconnect = link2;
        pipe.interconnect = link2;
    } else {
        // Without a multi-chip fabric, link overrides would be silent
        // no-ops (tp=1/pp=1 never touch it); reject them by presence.
        for (const char *key : {"linkgbs", "linkpj", "hops"})
            if (p.find(key) != p.options.end())
                fatal("option '" + std::string(key) +
                      (clustered || pipelined
                           ? "' has no effect at tp=1/pp=1 in spec '"
                           : "' requires tp= or pp= in spec '") +
                      spec + "'");
    }
    if (!has_tier2)
        for (const char *key : {"linkgbs2", "linkpj2", "hops2"})
            if (p.find(key) != p.options.end())
                fatal("option '" + std::string(key) +
                      "' requires a boundary fabric (tp2 >= 2 or "
                      "pp >= 2) in spec '" +
                      spec + "'");
    auto finish = [&](std::unique_ptr<Accelerator> chip)
        -> std::unique_ptr<Accelerator> {
        if (clustered)
            chip = std::make_unique<ClusterAccelerator>(std::move(chip),
                                                        cluster);
        if (tiered)
            chip = std::make_unique<ClusterAccelerator>(std::move(chip),
                                                        outerCluster);
        if (pipelined)
            chip = std::make_unique<PipelineAccelerator>(std::move(chip),
                                                         pipe);
        if (dataParallel)
            chip = std::make_unique<FleetAccelerator>(std::move(chip),
                                                      fleetOpts);
        return chip;
    };

    auto takeDouble = [&p](const char *key, double fallback) {
        auto it = p.find(key);
        if (it == p.options.end())
            return fallback;
        const double v = toDouble(key, it->second);
        p.options.erase(it);
        return v;
    };
    auto takeBool = [&p](const char *key, bool fallback) {
        auto it = p.find(key);
        if (it == p.options.end())
            return fallback;
        const bool v = toBool(key, it->second);
        p.options.erase(it);
        return v;
    };
    auto takeCount = [&p](const char *key, std::size_t fallback) {
        auto it = p.find(key);
        if (it == p.options.end())
            return fallback;
        const std::size_t v = toCount(key, it->second);
        p.options.erase(it);
        return v;
    };

    if (p.name == "mcbp" || p.name == "mcbp-standard" ||
        p.name == "mcbp-s" || p.name == "mcbp-aggressive" ||
        p.name == "mcbp-a" || p.name == "mcbp-baseline") {
        // Start from the canonical presets so the registry can never
        // drift from makeMcbp{Standard,Aggressive,Baseline}(). Options
        // only: a preset accelerator would profile through the
        // process-wide cache instead of this registry's.
        accel::McbpOptions o =
            p.name == "mcbp-aggressive" || p.name == "mcbp-a"
                ? accel::mcbpAggressiveOptions()
            : p.name == "mcbp-baseline" ? accel::mcbpBaselineOptions()
                                        : accel::mcbpStandardOptions();
        o.alpha = takeDouble("alpha", o.alpha);
        o.seed = takeCount("seed", static_cast<std::size_t>(o.seed));
        o.processors = takeCount("procs", o.processors);
        o.enableBrcr = takeBool("brcr", o.enableBrcr);
        o.enableBstc = takeBool("bstc", o.enableBstc);
        o.enableBgpp = takeBool("bgpp", o.enableBgpp);
        rejectUnknown(p, {"alpha", "seed", "procs", "brcr", "bstc",
                          "bgpp"});
        return finish(std::make_unique<McbpAdapter>(
            accel::McbpAccelerator(hw_, o, profiles_)));
    }

    if (p.name == "a100" || p.name == "a100-sw") {
        accel::GpuSoftwareOptions sw;
        if (p.name == "a100-sw")
            sw.brcr = sw.bstc = sw.bgpp = true;
        sw.brcr = takeBool("brcr", sw.brcr);
        sw.bstc = takeBool("bstc", sw.bstc);
        sw.bgpp = takeBool("bgpp", sw.bgpp);
        const double alpha = takeDouble("alpha", 0.6);
        const std::uint64_t seed = takeCount("seed", 1);
        rejectUnknown(p, {"brcr", "bstc", "bgpp", "alpha", "seed"});
        return finish(std::make_unique<GpuAdapter>(
            accel::GpuParams{}, sw, profiles_, alpha, seed));
    }

    if (const BaselineDef *def = findBaseline(p.name)) {
        // Only accept the options this design can react to; an alpha
        // sweep on a weight-profile design would otherwise be a silent
        // no-op.
        double alpha = 0.6;
        std::uint64_t seed = 1;
        if (def->fromAttention != nullptr) {
            alpha = takeDouble("alpha", alpha);
            seed = takeCount("seed", 1);
            rejectUnknown(p, {"alpha", "seed"});
        } else if (def->fromWeights != nullptr) {
            seed = takeCount("seed", 1);
            rejectUnknown(p, {"seed"});
        } else {
            rejectUnknown(p, {});
        }

        BaselineAdapter::TraitsMaker maker;
        BaselineAdapter::ProfileNeeds needs;
        needs.alpha = alpha;
        needs.seed = seed;
        if (def->fromAttention != nullptr) {
            needs.attention = true;
            maker = [alpha, seed, make = def->fromAttention](
                        accel::ProfileCache &cache,
                        const model::LlmConfig &m,
                        const model::Workload &t) {
                return make(cache.attention(m, t, alpha, seed));
            };
        } else if (def->fromWeights != nullptr) {
            needs.weights = true;
            maker = [seed, make = def->fromWeights](
                        accel::ProfileCache &cache,
                        const model::LlmConfig &m,
                        const model::Workload &) {
                return make(cache.weights(m, quant::BitWidth::Int8, seed));
            };
        } else {
            maker = [](accel::ProfileCache &, const model::LlmConfig &,
                       const model::Workload &) {
                return accel::makeSystolic();
            };
        }
        return finish(std::make_unique<BaselineAdapter>(
            def->display, maker, def->caps, profiles_, hw_, needs));
    }

    fatal("unknown accelerator spec '" + spec + "'");
}

std::vector<std::unique_ptr<Accelerator>>
Registry::fleet(const std::vector<std::string> &specs) const
{
    std::vector<std::unique_ptr<Accelerator>> out;
    out.reserve(specs.size());
    for (const std::string &spec : specs)
        out.push_back(make(spec));
    return out;
}

void
Registry::warmFleet(
    const std::vector<std::unique_ptr<Accelerator>> &fleet,
    const std::vector<model::LlmConfig> &models,
    const std::vector<model::Workload> &tasks, std::size_t threads) const
{
    std::vector<accel::ProfileRequest> requests;
    for (const auto &accel : fleet)
        for (const model::LlmConfig &m : models)
            for (const model::Workload &t : tasks)
                accel->profileRequests(m, t, requests);
    // warm() deduplicates by final cache key, so overlapping needs
    // across the fleet (shared seeds/alphas) fan out exactly once.
    profiles_->warm(requests, threads);
}

void
Registry::warmFleet(
    const std::vector<std::unique_ptr<Accelerator>> &fleet,
    const std::vector<std::string> &models,
    const std::vector<std::string> &tasks, std::size_t threads) const
{
    std::vector<model::LlmConfig> ms;
    for (const std::string &name : models)
        ms.push_back(model::findModel(name));
    std::vector<model::Workload> ts;
    for (const std::string &name : tasks)
        ts.push_back(model::findTask(name));
    warmFleet(fleet, ms, ts, threads);
}

std::vector<std::string>
Registry::knownSpecs()
{
    std::vector<std::string> specs = {"mcbp", "mcbp-standard",
                                      "mcbp-aggressive",
                                      "mcbp-baseline"};
    for (const BaselineDef &d : baselineDefs())
        specs.push_back(d.spec);
    specs.push_back("a100");
    specs.push_back("a100-sw");
    return specs;
}

} // namespace mcbp::engine
