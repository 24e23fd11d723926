/**
 * @file
 * The memory-system state shared by every core of a chip: the
 * inclusive LLC, the memory queue (shared MSHR pool) in front of DRAM,
 * the DDR3 channel/bank state, and the stream prefetcher that trains on
 * LLC demand traffic.
 *
 * A Simulation builds one SharedMemory and attaches one MemorySystem
 * (private L1s, per-core counters) per core; a single core is simply a
 * chip of one. Cores contend for memory-queue slots, DRAM banks and
 * LLC capacity exactly the way a single core contends with its own
 * prefetcher.
 *
 * Cores are kept architecturally disjoint by address namespacing: each
 * MemorySystem rebases its addresses with its core id in the
 * top bits (see kCoreAddrShift), so two cores never alias a line while
 * still colliding in LLC sets and DRAM banks — the contention the
 * multi-core model exists to measure. The namespaced address also
 * encodes the owner of every LLC line, which is how evictions are
 * back-invalidated into the right core's L1s and attributed to the
 * eviction-by-other-core contention counters.
 */

#ifndef RAB_MEMORY_SHARED_MEMORY_HH
#define RAB_MEMORY_SHARED_MEMORY_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "memory/cache.hh"
#include "memory/dram.hh"
#include "memory/req.hh"
#include "memory/stream_prefetcher.hh"
#include "stats/stats.hh"

namespace rab
{

class MemorySystem;
struct MemSysConfig;

/** Bit position of the core id inside a namespaced address. Workload
 *  address spaces stay far below this, so rebasing is collision-free
 *  and the single-core base (core 0) is the identity. */
constexpr int kCoreAddrShift = 48;

/** Mask selecting the architectural (pre-namespacing) address bits.
 *  Addresses presented to a MemorySystem on a chip of more than one
 *  core must fit below the core-id field; anything above is masked at
 *  the namespacing boundary (and counted) so it can never alias
 *  another core's slice. */
constexpr Addr kCoreAddrMask = (Addr{1} << kCoreAddrShift) - 1;

struct EnginePrefetchResult;

/** "coreN.name" — the per-core indexed stat-name convention for
 *  registration loops over cores (rablint's rab-stat-registration
 *  check understands this helper; see tools/rablint). */
std::string perCoreStatName(int core, const std::string &name);

/** The chip-shared half of the memory hierarchy. */
class SharedMemory
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    /** @p config supplies the LLC/DRAM/prefetcher/queue parameters;
     *  the L1 fields are ignored here (they are per-core). */
    SharedMemory(const MemSysConfig &config, int num_cores);
    ~SharedMemory();

    SharedMemory(const SharedMemory &) = delete;
    SharedMemory &operator=(const SharedMemory &) = delete;

    /** Register core @p core_id's private view. Cores must attach in
     *  id order, once each, before the first access. */
    void attach(MemorySystem *core);

    int numCores() const { return numCores_; }

    /** Number of LLC misses currently in flight (all cores). */
    std::size_t outstandingMisses(Cycle now);

    /** Earliest future cycle (> @p now) at which shared memory state
     *  changes: the next in-flight fill completing or a DRAM bank/bus
     *  freeing up. 0 when nothing is pending. A pure query: completed
     *  misses stay queued until an access prunes them at its own
     *  cycle, so asking changes nothing (the chain engine's catch-up
     *  accesses run at cycles older than the asking core's). */
    Cycle nextEventCycle(Cycle now) const;

    Cache &llc() { return llc_; }
    const Cache &llc() const { return llc_; }
    Dram &dram() { return dram_; }
    StreamPrefetcher &prefetcher() { return prefetcher_; }

    /** Total DRAM requests (reads + writebacks), chip-wide. */
    std::uint64_t dramRequests() const;

    /**
     * Register the shared components' stats into @p parent in the
     * legacy single-core order (llc, dram, prefetcher). On a one-core
     * chip the MemorySystem calls this with its own "mem" group so the
     * single-core stat layout is preserved byte-for-byte.
     */
    void regComponentStats(StatGroup *parent);

    /**
     * Multi-core registration: the components plus the shared-pool
     * contention counters and the per-core indexed MSHR occupancy
     * peaks, into the simulation's "shared" group.
     */
    void regSharedStats(StatGroup *parent);

    /** @{ Shared-pool statistics (registered by regSharedStats only;
     *  they stay zero on a single core). */
    Counter crossCoreEvictions; ///< LLC victims owned by another core.
    /** Line addresses whose core-id bits named a nonexistent core and
     *  were clamped by ownerOf (corrupted state; should stay 0). */
    mutable Counter ownerClamps;
    /** @} */

  private:
    friend class MemorySystem;

    /** Per-line in-flight fill tracking (the LLC MSHR file). */
    using PendingMap = std::unordered_map<Addr, Cycle>;

    /** One shared memory-queue slot: the fill's completion cycle and
     *  the core the miss belongs to. */
    struct OutstandingMiss
    {
        Cycle ready = 0;
        int core = 0;
    };
    struct OutstandingLater
    {
        bool operator()(const OutstandingMiss &a,
                        const OutstandingMiss &b) const
        {
            if (a.ready != b.ready)
                return a.ready > b.ready;
            return a.core > b.core;
        }
    };

    /** The core owning a namespaced line address. */
    MemorySystem &ownerOf(Addr line_addr) const;

    /** Handle @p core's access that missed its L1, at the LLC and
     *  below. Returns the cycle the line reaches L1 / the requester.
     *  Counters for the miss are charged to @p core. */
    Cycle accessLlc(MemorySystem &core, AccessType type, Addr line_addr,
                    Cycle llc_time, Cycle now, AccessResult &result,
                    bool &rejected, bool runahead);

    /** Train the stream prefetcher on a demand access. */
    void trainPrefetcher(AccessType type, Addr line_addr, bool was_miss);

    /** Issue prefetch candidates produced by the prefetcher; issued
     *  prefetches are charged to the triggering @p core. */
    void issuePrefetches(MemorySystem &core, Cycle now);

    /** One chain-engine prefetch for @p core's (namespaced, aligned)
     *  @p line_addr at engine cycle @p now. Fills @p out with the
     *  admission verdict and the fill's ready cycle. Engine traffic is
     *  speculative: it respects the demand queue reserve and never
     *  touches the demand counters or prefetcher training. */
    void enginePrefetch(MemorySystem &core, Addr line_addr, Cycle now,
                        EnginePrefetchResult &out);

    /** Inclusive-hierarchy eviction handling: back-invalidate the
     *  owner core's L1 copies, attribute cross-core evictions, and
     *  write dirty victims back to DRAM. */
    void handleEviction(const Eviction &ev, MemorySystem &accessor,
                        Cycle now);

    void pruneOutstanding(Cycle now);
    static void prunePending(PendingMap &pending, Cycle now);

    /** Record an LLC fill of @p line_addr completing at @p ready and
     *  raise llcPendingMax_ with it. Every fill enters llcPending_
     *  through here, so the watermark guard on the hit paths never
     *  skips a line that is still in flight. */
    void addPendingFill(Addr line_addr, Cycle ready);

    /** Acquire a memory-queue slot for @p core's fill completing at
     *  @p ready, maintaining the per-core occupancy accounting. */
    void pushOutstanding(MemorySystem &core, Cycle ready);

    int numCores_;
    Cache llc_;
    Dram dram_;
    StreamPrefetcher prefetcher_;

    PendingMap llcPending_;
    /** Watermark: the latest fill cycle ever inserted into
     *  llcPending_; once `now` passes it the hit path skips the hash
     *  find (see MemorySystem's L1 equivalents). */
    Cycle llcPendingMax_ = 0;

    /** Ready cycles of in-flight LLC misses (memory queue occupancy),
     *  shared by all cores: a min-heap under OutstandingLater, pruned
     *  only by accesses (see nextEventCycle). */
    std::vector<OutstandingMiss> outstanding_;
    /** Memory-queue slots currently held per core. */
    std::vector<std::uint64_t> heldNow_;
    /** Running per-core peak of heldNow_ (monotone counters so the
     *  stats package can register them; see regSharedStats). */
    std::vector<Counter> mshrPeak_;

    std::vector<Addr> prefetchCandidates_;
    std::vector<MemorySystem *> cores_;

    /** Shared config snapshot (LLC/DRAM/prefetcher/queue knobs). */
    const int memQueueEntries_;
    const int runaheadQueueReserve_;
    const int memRetryLimit_;
    const Cycle memTimeoutCycles_;
    const Cycle memRetryBackoffCycles_;
    const bool prefetchEnabled_;
};

} // namespace rab

#endif // RAB_MEMORY_SHARED_MEMORY_HH
