/**
 * @file
 * One core's view of the cache hierarchy: split 32 KB L1I/L1D private
 * to the core, in front of the chip-shared state (unified inclusive
 * 1 MB LLC, the 64-entry memory queue, the DDR3 model and the stream
 * prefetcher — see SharedMemory) (Table 1).
 *
 * Timing model: tags are updated immediately on a miss, but the line's
 * availability is tracked in per-level pending (MSHR) maps; accesses to
 * an in-flight line merge with the outstanding fill instead of issuing a
 * duplicate memory request. The memory queue bounds the number of LLC
 * misses in flight — requests beyond it are rejected and retried by the
 * core, which is what bounds achievable MLP.
 *
 * Every MemorySystem plugs one core into a SharedMemory under a core
 * id; its addresses are namespaced with that id (see kCoreAddrShift).
 * The SharedMemory's core count decides the rest: on a chip of more
 * than one core the view registers the per-core contention counters
 * and masks addresses that reach into the core-id bits, and the
 * shared components' stats belong to the caller's chip-wide group; on
 * a one-core chip it does neither and registers the shared components
 * under its own "mem" group (the single-core stat layout).
 */

#ifndef RAB_MEMORY_MEMORY_SYSTEM_HH
#define RAB_MEMORY_MEMORY_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "memory/cache.hh"
#include "memory/dram.hh"
#include "memory/req.hh"
#include "memory/shared_memory.hh"
#include "memory/stream_prefetcher.hh"
#include "stats/stats.hh"

namespace rab
{

/** Hierarchy configuration (defaults reproduce the paper's Table 1). */
struct MemSysConfig
{
    CacheConfig l1i{"l1i", 32 * 1024, 8, 64, 3};
    CacheConfig l1d{"l1d", 32 * 1024, 8, 64, 3};
    CacheConfig llc{"llc", 1024 * 1024, 8, 64, 18};
    DramConfig dram{};
    PrefetcherConfig prefetcher{};
    int memQueueEntries = 64; ///< Max LLC misses in flight.
    int runaheadQueueReserve = 24; ///< Memory-queue slots reserved for
                                   ///< demand (non-runahead) misses, so
                                   ///< speculative runahead traffic
                                   ///< cannot starve the demand stream.

    /** @{ Bounded-retry recovery for dropped DRAM responses (fault
     *  injection). A dropped response costs memTimeoutCycles before
     *  the requester notices; each retry adds a linear backoff. After
     *  memRetryLimit drops the access fails back to the core. */
    int memRetryLimit = 3;
    Cycle memTimeoutCycles = 1000;
    Cycle memRetryBackoffCycles = 200;
    /** @} */
};

class FaultInjector;
class ChainEngine;
struct ChainEngineConfig;
struct EnginePrefetchResult;
class FunctionalMemory;

/** One core's composed view of the cache/DRAM hierarchy. */
class MemorySystem
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    /** Core @p core_id's private L1s in front of @p shared, which
     *  must outlive this view. Cores must be constructed in core-id
     *  order (each constructor attaches to @p shared). */
    MemorySystem(const MemSysConfig &config, SharedMemory &shared,
                 int core_id);

    ~MemorySystem();

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /**
     * Perform a demand access.
     *
     * @param type kInstFetch, kLoad or kStore.
     * @param addr byte address.
     * @param now  current core cycle.
     */
    AccessResult access(AccessType type, Addr addr, Cycle now,
                        bool runahead = false);

    /** Number of LLC misses currently in flight (chip-wide). */
    std::size_t outstandingMisses(Cycle now);

    /** Earliest future cycle (> @p now) at which memory-side state
     *  changes: the next in-flight LLC-miss fill completing or a DRAM
     *  bank/bus freeing up. Returns 0 when nothing is pending. The
     *  fast-forward engine bounds its skip horizon with this. */
    Cycle nextEventCycle(Cycle now) const;

    /** True if the line holding @p addr is present in L1D or LLC tags
     *  and its fill (if any) has completed by @p now. */
    bool dataOnChip(Addr addr, Cycle now) const;

    /** True if an LLC miss for this line is currently in flight. */
    bool missInFlight(Addr addr, Cycle now) const;

    int lineBytes() const { return config_.llc.lineBytes; }
    const MemSysConfig &config() const { return config_; }

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &llc() { return shared_->llc(); }
    Dram &dram() { return shared_->dram(); }
    StreamPrefetcher &prefetcher() { return shared_->prefetcher(); }

    /** The shared half of the hierarchy. */
    SharedMemory &shared() { return *shared_; }
    const SharedMemory &shared() const { return *shared_; }

    /** This core's id (0 on a one-core chip). */
    int coreId() const { return coreId_; }

    /** Rebase an architectural address into this core's namespaced
     *  slice of the shared address space (identity for core 0). */
    Addr rebase(Addr addr) const { return addr | addrBase_; }

    /** Total DRAM requests (reads + writebacks) of the whole chip;
     *  Figure 16's metric. */
    std::uint64_t dramRequests() const;

    /** @{ Statistics. */
    Counter demandLoads;
    Counter demandStores;
    Counter llcDemandMisses;  ///< Demand (non-prefetch) LLC misses.
    Counter llcLoadMisses;    ///< Demand load LLC misses only.
    Counter queueRejects;     ///< Accesses rejected: memory queue full.
    Counter prefetchesIssued; ///< Prefetches sent to DRAM.
    Counter mshrMerges;       ///< Accesses merged into in-flight fills.
    Counter memRetries;       ///< DRAM requests re-sent after a drop.
    Counter memTimeouts;      ///< In-flight requests that timed out.
    Counter memRetryFailures; ///< Accesses that exhausted the retry
                              ///< budget and failed back to the core.
    Counter queueFaultStalls; ///< Accesses rejected by an injected
                              ///< memory-queue stall window.
    /** @} */

    /** @{ Contention statistics, registered only on a chip of more
     *  than one core; a single core leaves them out of its payload. */
    Counter llcEvictedByOthers;     ///< My LLC lines evicted by peers.
    Counter bankConflicts;          ///< My DRAM reads that waited for a
                                    ///< busy bank or bus.
    Counter bankConflictWaitCycles; ///< Total cycles those reads waited.
    Counter sharedMshrPeersHeld;    ///< Σ queue slots held by other
                                    ///< cores at my queue admissions.
    Counter queueRejectsContended;  ///< Queue-full rejections while
                                    ///< peers held at least one slot.
    /** @} */

    StatGroup &stats() { return statGroup_; }

    /** Attach a fault injector (may be null): drops/delays DRAM
     *  responses and opens transient memory-queue stall windows. */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }

    /** The attached fault injector (may be null). */
    FaultInjector *faultInjector() const { return faults_; }

    /**
     * Instantiate the Continuous Runahead chain engine beside this
     * hierarchy (see src/runahead/chain_engine.hh). @p func_mem is the
     * architectural memory image the engine reads values from — const:
     * the engine is prefetch-only by construction. Registers the
     * engine.* stat subtree only when the engine is enabled, so every
     * non-CRE stat payload is unchanged.
     */
    void enableChainEngine(const ChainEngineConfig &config,
                           const FunctionalMemory *func_mem);

    /** The chain engine, or null when never instantiated. */
    ChainEngine *chainEngine() const { return engine_.get(); }

    /**
     * Issue one engine prefetch for architectural address @p vaddr at
     * engine cycle @p now. Masks bits above the namespacing boundary
     * (corrupted chains compute arbitrary addresses), rebases into
     * this core's slice and line-aligns before handing the fill to
     * SharedMemory's speculative prefetch path.
     */
    EnginePrefetchResult enginePrefetchLine(Addr vaddr, Cycle now);

    /** Demand addresses (chips of more than one core) whose bits
     *  ≥ kCoreAddrShift were masked at the namespacing boundary. */
    Counter addrHighMasked;

  private:
    friend class SharedMemory;

    /** Per-level in-flight fill tracking. */
    using PendingMap = std::unordered_map<Addr, Cycle>;

    /**
     * One L1's in-flight fills. Only access() reads them, at its
     * core's cycle, which never goes back, so a fill whose cycle has
     * passed can never merge again: expire() drops those, earliest
     * first, off a min-heap of fill cycles. (The LLC's map keeps its
     * lazy prune: the chain engine reads it at older cycles.)
     */
    struct L1Fills
    {
        /** Line -> fill cycle, for fills not yet expired. */
        PendingMap ready;
        /** (fill cycle, line) of every fill added since it last
         *  expired, as a min-heap; an entry whose line was refilled
         *  since is stale and erases nothing. */
        std::vector<std::pair<Cycle, Addr>> heap;
        /** Watermark: the latest fill cycle ever added. Once `now`
         *  passes it no fill is in flight, so the hit path can skip
         *  the hash find. */
        Cycle max = 0;

        void add(Addr line, Cycle cycle);
        /** Drop every fill whose cycle is <= @p now. */
        void expire(Cycle now);
        /** Rebuild heap from ready (a restored snapshot holds only
         *  the map). */
        void rebuildHeap();
    };

    /** Counter, L1 and (one-core chip) shared-component
     *  registration. */
    void regStats();

    MemSysConfig config_;
    Cache l1i_;
    Cache l1d_;

    SharedMemory *shared_;
    std::unique_ptr<ChainEngine> engine_;
    int coreId_ = 0;
    Addr addrBase_ = 0;
    /** The chip has more than one core: contention counters and
     *  namespacing-boundary masking are live. */
    bool multiCore_ = false;

    L1Fills l1iFills_;
    L1Fills l1dFills_;

    FaultInjector *faults_ = nullptr;
    StatGroup statGroup_;
};

} // namespace rab

#endif // RAB_MEMORY_MEMORY_SYSTEM_HH
