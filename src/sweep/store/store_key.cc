#include "sweep/store/store_key.hh"

#include "common/logging.hh"
#include "snapshot/snapshot.hh"

namespace rab
{

std::string
canonicalConfigString(const CampaignSpec &spec, const SweepPoint &point,
                      const std::string &snapshot_id)
{
    // Field order is part of the format. Bumping the schema line
    // deliberately invalidates every cached result — that is the
    // intended way to retire a format. The config digest hashes every
    // machine and variant field core/config_fields.hh lists, so a
    // spec knob that reaches the SimConfig is keyed here unasked. The
    // digest leaves out the workloads, which live in the programs,
    // and fast-forward, which preserves behaviour and which campaigns
    // always run. A point forked from a shared warmup snapshot is
    // keyed to that exact image (format version + content hash), so a
    // snapshot-format bump or a different warmup image can never
    // serve a stale result.
    std::string s = std::string("schema=") + kConfigKeySchema + "\n";
    s += "config="
        + hex64(snapshotConfigDigest(
            pointConfig(spec, point, point.runahead)))
        + "\n";
    for (std::size_t i = 0; i < point.mixWorkloads.size(); ++i)
        s += strprintf("core%zu=%s\n", i, point.mixWorkloads[i].c_str());
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
