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
 * versions. An accidental change to the serialisation silently
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

/** Current canonical config-key schema. Bumped v1 -> v2 when the
 *  multi-core fields (cores, per-core workload/policy) were added,
 *  v2 -> v3 with the Continuous Runahead engine: CRE runs register new
 *  stats (engine.*, owner clamps, namespacing masks) that change the
 *  replayed stat payload, so pre-engine records must never be served
 *  to v3-aware code, and v3 -> v4 with snapshotted warmup: a point
 *  whose warmup was forked from a shared baseline-policy snapshot is a
 *  different result universe than one warmed inline under its own
 *  config, so the warmup mode (and the identity of the snapshot it
 *  forked from) is part of the key. Records keyed under an older
 *  schema read as misses (ResultStore checks the echoed schema). */
inline constexpr const char *kConfigKeySchema = "rab-config-key-v4";

/**
 * Canonical serialisation of every per-point configuration field that
 * affects simulated output (variant, runahead config, prefetch,
 * warmup, fast-forward, check level/policy, core count, per-core
 * workload/policy assignment, and the warmup mode). Line-oriented
 * `name=value` text in an order fixed here; versioned so a future
 * field addition is an explicit, visible invalidation.
 *
 * @p snapshot_id identifies the warmup snapshot this point forked
 * from ("<format-version>/<content-hash-hex>", built by the sweep
 * engine); empty means inline warmup.
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
