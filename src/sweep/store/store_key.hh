/**
 * @file
 * Content-addressed store keys for campaign results.
 *
 * A cached SweepPoint result is only reusable when *everything* that
 * could change the simulation's output is part of the key: the code
 * (git SHA), the full per-point configuration (config hash), the
 * workload, the seed, and the instruction budget. The key is hashed
 * into a fixed-width hex digest that doubles as the record's file
 * name, so the store never has to parse a record to know what it is.
 *
 * The config hash is derived from a canonical key=value serialisation
 * with a field order fixed by code (never by map iteration), so it is
 * byte-identical across processes, thread counts and compiler
 * versions. Its config line is the snapshot config digest of the
 * point's SimConfig, which walks core/config_fields.hh, the one list
 * of config fields, so no hand-kept list here can miss a field. An
 * accidental change to the serialisation, or to a config default,
 * invalidates every cached result — tests/test_store.cc pins a golden
 * hash value so such a change fails loudly instead.
 */

#ifndef RAB_SWEEP_STORE_STORE_KEY_HH
#define RAB_SWEEP_STORE_STORE_KEY_HH

#include <cstdint>
#include <string>

#include "common/hash.hh" // fnv1a64, hex64: the key's hash and its text.
#include "sweep/campaign.hh"

namespace rab
{

/** Current canonical config-key schema. v5 replaced the hand-kept
 *  field lines of v4 (variant, runahead, prefetch, warmup, check
 *  level and policy, cores, per-core policy, engine, warmup mode)
 *  with the snapshot config digest of the point's SimConfig. A key
 *  hashed under another schema names another record file, so it can
 *  never hit. */
inline constexpr const char *kConfigKeySchema = "rab-config-key-v5";

/**
 * Canonical serialisation of everything per point that shapes
 * simulated output beyond the StoreKey's own fields: `config=`, the
 * hex snapshotConfigDigest of pointConfig(spec, point,
 * point.runahead); `fast_forward=`, which that digest leaves out; one
 * `core<i>=<workload>` per core of a mix point; and `snapshot=`.
 * Line-oriented `name=value` text in an order fixed here. The variant
 * label is not keyed: two labels for one config run one simulation.
 *
 * @p snapshot_id identifies the warmup snapshot this point forked
 * from ("<format-version>/<content-hash-hex>", built by the sweep
 * engine); empty ("-") means inline warmup.
 */
std::string canonicalConfigString(const CampaignSpec &spec,
                                  const SweepPoint &point,
                                  const std::string &snapshot_id = "");

/** fnv1a64 of canonicalConfigString, as hex64. */
std::string configHashHex(const CampaignSpec &spec,
                          const SweepPoint &point,
                          const std::string &snapshot_id = "");

/** The full identity of one cached result. */
struct StoreKey
{
    std::string gitSha;     ///< Code identity (currentGitSha()).
    std::string configHash; ///< configHashHex of the point's config.
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t instructions = 0; ///< Measured instruction budget.

    /** Line-oriented canonical form the key hash is computed over. */
    std::string canonical() const;

    /** hex64(fnv1a64(canonical())): record file stem. */
    std::string hashHex() const;
};

/** Build the key for @p point of @p spec under code identity
 *  @p git_sha. @p snapshot_id as for canonicalConfigString(). */
StoreKey makeStoreKey(const CampaignSpec &spec, const SweepPoint &point,
                      const std::string &git_sha,
                      const std::string &snapshot_id = "");

} // namespace rab

#endif // RAB_SWEEP_STORE_STORE_KEY_HH
