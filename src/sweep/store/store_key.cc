#include "sweep/store/store_key.hh"

#include <cstdio>

#include "common/logging.hh"

namespace rab
{

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t hash = 14695981039346656037ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  (unsigned long long)value);
    return buf;
}

std::string
canonicalConfigString(const CampaignSpec &spec, const SweepPoint &point,
                      const std::string &snapshot_id)
{
    // Field order is part of the format: append-only, never reorder.
    // Bumping the schema line deliberately invalidates every cached
    // result — that is the intended way to retire a format. A point
    // forked from a shared warmup snapshot is keyed to that exact
    // image (format version + content hash), so a snapshot-format bump
    // or a different warmup image can never serve a stale result.
    std::string s;
    s += std::string("schema=") + kConfigKeySchema + "\n";
    s += "variant=" + point.variant + "\n";
    s += std::string("runahead=") + runaheadConfigName(point.runahead)
        + "\n";
    s += strprintf("prefetch=%d\n", point.prefetch ? 1 : 0);
    s += strprintf("warmup=%llu\n", (unsigned long long)spec.warmup);
    s += strprintf("fast_forward=%d\n", spec.fastForward ? 1 : 0);
    s += strprintf("check_level=%d\n",
                   static_cast<int>(spec.checkLevel));
    s += strprintf("check_policy=%d\n",
                   static_cast<int>(spec.checkPolicy));
    s += strprintf("cores=%zu\n",
                   point.isMix() ? point.mixWorkloads.size() : 1);
    for (std::size_t i = 0; i < point.mixWorkloads.size(); ++i) {
        const RunaheadConfig policy = point.corePolicies.empty()
            ? point.runahead
            : point.corePolicies[i % point.corePolicies.size()];
        s += strprintf("core%zu=%s/%s\n", i,
                       point.mixWorkloads[i].c_str(),
                       runaheadConfigName(policy));
    }
    const auto uses_engine = [](RunaheadConfig rc) {
        return rc == RunaheadConfig::kCRE
            || rc == RunaheadConfig::kCREHybrid;
    };
    bool engine = uses_engine(point.runahead);
    for (const RunaheadConfig rc : point.corePolicies)
        engine = engine || uses_engine(rc);
    s += strprintf("engine=%d\n", engine ? 1 : 0);
    s += strprintf("warmup_mode=%s\n",
                   snapshot_id.empty() ? "inline" : "snapshot");
    s += "snapshot="
        + (snapshot_id.empty() ? std::string("-") : snapshot_id) + "\n";
    return s;
}

std::string
configHashHex(const CampaignSpec &spec, const SweepPoint &point,
              const std::string &snapshot_id)
{
    return hex64(fnv1a64(canonicalConfigString(spec, point,
                                               snapshot_id)));
}

std::string
StoreKey::canonical() const
{
    std::string s;
    s += "git=" + gitSha + "\n";
    s += "config=" + configHash + "\n";
    s += "workload=" + workload + "\n";
    s += strprintf("seed=%llu\n", (unsigned long long)seed);
    s += strprintf("instructions=%llu\n",
                   (unsigned long long)instructions);
    return s;
}

std::string
StoreKey::hashHex() const
{
    return hex64(fnv1a64(canonical()));
}

StoreKey
makeStoreKey(const CampaignSpec &spec, const SweepPoint &point,
             const std::string &git_sha,
             const std::string &snapshot_id)
{
    StoreKey key;
    key.gitSha = git_sha;
    key.configHash = configHashHex(spec, point, snapshot_id);
    key.workload = point.workload;
    key.seed = point.seed;
    key.instructions = spec.instructions;
    return key;
}

} // namespace rab
