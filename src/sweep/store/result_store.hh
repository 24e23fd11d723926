/**
 * @file
 * Crash-safe, content-addressed campaign result store.
 *
 * Each completed SweepPoint is persisted as one record file under a
 * directory layout derived from its StoreKey hash
 * (`<root>/ab/<hash16>.rec`, `ab` = first two hash digits). Records
 * are written atomically — temp file in `<root>/tmp/`, fsync, rename
 * onto the final name (writeFileDurably) — so a record either exists
 * in full or not at all, whatever kill -9 does to the writer. A
 * campaign re-run against the same store therefore resumes exactly
 * where the previous run died: runCampaign() consults the store per
 * point, simulates only the misses, and writes fresh results back.
 *
 * The store also caches warmup snapshots (`<root>/sn/<hash16>.snap`,
 * keyed by SnapshotStoreKey). Both record kinds are one shape inside
 * the common/durable_file frame: the key's canonical echo, a NUL,
 * then the body.
 *
 *   kind      magic       version  body
 *   result    "RABSTORE"  2        pointJson(result, false), dumped
 *   snapshot  "RABSNAPR"  1        the raw snapshot payload
 *
 * Self-healing: a lookup treats any malformed record — short file,
 * bad magic or version, CRC mismatch, key echo mismatch, unparseable
 * body — as absent, unlinks it, and counts it in corruptDiscarded(),
 * so a torn write, a flipped bit or a record of an older format costs
 * one recomputation instead of a crash or a wrong result.
 *
 * Thread safety: lookup/put are safe to call concurrently from sweep
 * workers. Records are immutable once renamed into place; concurrent
 * writers of the same key race benignly (identical content, atomic
 * rename). Counters are atomics.
 */

#ifndef RAB_SWEEP_STORE_RESULT_STORE_HH
#define RAB_SWEEP_STORE_RESULT_STORE_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/campaign.hh"
#include "sweep/store/store_key.hh"

namespace rab
{

/**
 * Identity of one cached warmup snapshot. A snapshot is reusable by
 * any config variant whose warmup-relevant digest matches, so the key
 * is the warmup digest (not the full config hash) plus everything
 * else that shapes warmup state: code identity, each core's workload,
 * seed, the warmup instruction budget, and the payload format
 * version.
 */
struct SnapshotStoreKey
{
    std::string gitSha;          ///< Code identity (currentGitSha()).
    std::string warmupDigestHex; ///< hex64(snapshotWarmupDigest()).
    std::vector<std::string> workloads; ///< Suite name per core.
    std::uint64_t seed = 0;
    std::uint64_t warmupInstructions = 0;
    std::uint32_t formatVersion = 0; ///< kSnapshotFormatVersion.

    /** Line-oriented canonical form the key hash is computed over. */
    std::string canonical() const;

    /** hex64(fnv1a64(canonical())): record file stem. */
    std::string hashHex() const;
};

class ResultStore
{
  public:
    /** Open (creating directories as needed) a store rooted at
     *  @p root. Check ok() before use. */
    explicit ResultStore(std::string root);

    /** False when the root could not be created/opened; error() says
     *  why. A failed store ignores put() and misses every lookup(). */
    bool ok() const { return ok_; }
    const std::string &error() const { return error_; }
    const std::string &root() const { return root_; }

    /**
     * Fetch the cached result for @p key. Returns the stored
     * PointResult (ok == true records only — failures are never
     * cached) or nullopt on miss. Malformed records are discarded
     * (self-healing) and reported as misses.
     */
    std::optional<PointResult> lookup(const StoreKey &key);

    /**
     * Persist @p result under @p key (atomic temp+rename, fsync'd).
     * Failed points are rejected — a deterministic failure should be
     * re-attempted by the next run, not replayed from cache. Returns
     * false on I/O error (the campaign still completes; the point is
     * simply not cached).
     */
    bool put(const StoreKey &key, const PointResult &result);

    /**
     * Fetch the cached warmup-snapshot payload for @p key, or nullopt
     * on miss. Malformed snapshot records are unlinked and reported
     * as misses, exactly like result records.
     */
    std::optional<std::string> lookupSnapshot(
        const SnapshotStoreKey &key);

    /** Persist snapshot @p payload under @p key (atomic, fsync'd).
     *  Returns false on I/O error or a failed store. */
    bool putSnapshot(const SnapshotStoreKey &key,
                     const std::string &payload);

    /** @{ Monotonic counters since construction. */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t stored() const { return stored_; }
    std::uint64_t corruptDiscarded() const { return corruptDiscarded_; }
    std::uint64_t snapshotHits() const { return snapshotHits_; }
    std::uint64_t snapshotMisses() const { return snapshotMisses_; }
    std::uint64_t snapshotStored() const { return snapshotStored_; }
    /** @} */

    /** Record file path for @p key (exposed for tests that corrupt
     *  records on purpose). */
    std::string recordPath(const StoreKey &key) const;

    /** Snapshot record path for @p key (same test-visibility rule). */
    std::string snapshotPath(const SnapshotStoreKey &key) const;

  private:
    /** The body of the record at @p path framed under @p magic and
     *  @p version whose body starts with @p echo and a NUL. nullopt
     *  when the file is absent; a malformed record is discarded. */
    std::optional<std::string> lookupBody(const std::string &path,
                                          const char (&magic)[8],
                                          std::uint32_t version,
                                          const std::string &echo);
    /** Unlink the malformed record at @p path and count it. */
    void discard(const std::string &path);
    /** Write @p echo, a NUL and @p body as the record at @p path
     *  (atomic, fsync'd). False on I/O error or a failed store. */
    bool putBody(const std::string &path, const char (&magic)[8],
                 std::uint32_t version, const std::string &echo,
                 std::string_view body);

    std::string root_;
    bool ok_ = false;
    std::string error_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> stored_{0};
    std::atomic<std::uint64_t> corruptDiscarded_{0};
    std::atomic<std::uint64_t> snapshotHits_{0};
    std::atomic<std::uint64_t> snapshotMisses_{0};
    std::atomic<std::uint64_t> snapshotStored_{0};
    std::atomic<std::uint64_t> tempSeq_{0};
};

} // namespace rab

#endif // RAB_SWEEP_STORE_RESULT_STORE_HH
