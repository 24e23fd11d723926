/**
 * @file
 * Runahead policy + mode controller.
 *
 * Owns everything runahead-specific that is not the core pipeline
 * itself: the policy knobs (traditional / buffer / chain cache /
 * hybrid / enhancements), the runahead cache, the chain generator,
 * the chain cache and the runahead buffer, plus all per-interval
 * bookkeeping the evaluation figures need (MLP per interval, cycles per
 * mode, chain-cache exact-match rates, suppressed entries).
 */

#ifndef RAB_RUNAHEAD_RUNAHEAD_CONTROLLER_HH
#define RAB_RUNAHEAD_RUNAHEAD_CONTROLLER_HH

#include <cstdint>

#include "backend/dyn_uop.hh"
#include "backend/lsq.hh"
#include "backend/rob.hh"
#include "runahead/chain_cache.hh"
#include "runahead/chain_engine.hh"
#include "runahead/chain_generator.hh"
#include "runahead/degradation_ladder.hh"
#include "runahead/runahead_buffer.hh"
#include "runahead/runahead_cache.hh"
#include "stats/stats.hh"

namespace rab
{

class InvariantChecker;
class FaultInjector;

/** Which runahead mechanism is currently running. */
enum class RunaheadMode
{
    kNone,        ///< Normal execution.
    kTraditional, ///< Front-end supplies runahead instructions.
    kBuffer,      ///< Runahead buffer supplies the dependence chain.
};

/** Configuration of the runahead mechanisms (Section 4). */
struct RunaheadPolicy
{
    bool traditionalEnabled = false;
    bool bufferEnabled = false;
    bool chainCacheEnabled = false;
    bool hybrid = false;        ///< Fig. 8 fallback policy.
    bool enhancements = false;  ///< Mutlu ISCA-32 interval filters.

    /** Enhancement 1: only enter when the blocking miss was issued to
     *  memory fewer than this many instructions ago. */
    std::uint64_t distanceThreshold = 250;

    int chainCacheEntries = 2;
    ChainGeneratorConfig chainGen{}; ///< maxChainLength sizes the buffer.
    RunaheadCacheConfig runaheadCache{};
    DegradationConfig degrade{}; ///< Graceful-degradation ladder.
    ChainEngineConfig engine{}; ///< Continuous Runahead engine (CRE).

    bool anyRunahead() const
    {
        return traditionalEnabled || bufferEnabled;
    }
};

/** @{ Named policy presets matching the paper's evaluated systems. */
RunaheadPolicy policyNone();
RunaheadPolicy policyTraditional();           ///< "Runahead"
RunaheadPolicy policyTraditionalEnhanced();   ///< "Runahead Enhancements"
RunaheadPolicy policyBuffer();                ///< "Runahead Buffer"
RunaheadPolicy policyBufferChainCache();      ///< "RA Buffer + Chain Cache"
RunaheadPolicy policyHybrid();                ///< "Hybrid"
RunaheadPolicy policyCre();                   ///< "CRE"
RunaheadPolicy policyCreHybrid();             ///< "CRE+Hybrid"
/** @} */

/** What to do when the ROB is blocked by an LLC miss. */
struct EntryDecision
{
    bool enter = false;
    RunaheadMode mode = RunaheadMode::kNone;
    bool usedCachedChain = false;
    DependenceChain chain;      ///< For kBuffer mode.
    Cycle generationCycles = 0; ///< Pipeline delay before buffer issue.
};

/** The controller. */
class RunaheadController
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    explicit RunaheadController(const RunaheadPolicy &policy);

    const RunaheadPolicy &policy() const { return policy_; }
    RunaheadMode mode() const { return mode_; }
    bool inRunahead() const { return mode_ != RunaheadMode::kNone; }

    /**
     * Decide whether/how to enter runahead for the blocking load at the
     * ROB head.
     *
     * @param head           the blocking load.
     * @param fetched_instrs normal-mode fetched-uop count (drives the
     *                       short-interval enhancement).
     * @param retired_instrs committed-uop count (drives the overlap
     *                       enhancement).
     */
    EntryDecision decideEntry(const Rob &rob, const StoreQueue &sq,
                              const DynUop &head,
                              std::uint64_t fetched_instrs,
                              std::uint64_t retired_instrs);

    /** Commit to an entry decision at cycle @p now. The blocking miss
     *  returns at @p blocking_ready. */
    void enter(const EntryDecision &decision, Cycle now,
               Cycle blocking_ready, std::uint64_t retired_instrs);

    /** True when the blocking data has returned. */
    bool shouldExit(Cycle now) const
    {
        return inRunahead() && now >= blockingReady_;
    }

    /** Leave runahead. @p farthest_instr is the youngest normal-stream
     *  instruction number reached (traditional mode pseudo-retirement);
     *  feeds the overlap enhancement. */
    void exit(std::uint64_t farthest_instr);

    /** Account one cycle in the current mode. */
    void tickCycle();

    /** Bulk-account @p n skipped cycles exactly as @p n tickCycle()
     *  calls would have (mode-cycle counters + ladder time); the
     *  caller must keep @p n within ladder().maxSkippableCycles(). */
    void accountSkippedCycles(std::uint64_t n);

    /** Cycle the blocking data returns (exit horizon; only meaningful
     *  while inRunahead()). */
    Cycle exitReadyAt() const { return blockingReady_; }

    /** An LLC miss was generated by a runahead op (MLP tracking). */
    void noteRunaheadMiss();

    /** Cycle the runahead buffer may start issuing (after chain
     *  generation completes). */
    Cycle bufferIssueStart() const { return bufferIssueStart_; }

    RunaheadCache &runaheadCache() { return runaheadCache_; }
    ChainCache &chainCache() { return chainCache_; }
    ChainGenerator &chainGenerator() { return chainGen_; }
    RunaheadBuffer &buffer() { return buffer_; }
    const RunaheadBuffer &buffer() const { return buffer_; }

    /** Attach the core's invariant checker (may be null / disabled):
     *  validates generated chains and chain-cache indexing. */
    void setChecker(InvariantChecker *checker) { checker_ = checker; }

    /** Attach a fault injector (may be null): corrupts chain-cache
     *  entries on the schedule it carries. */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }

    /** The graceful-degradation ladder (fault containment). */
    DegradationLadder &ladder() { return ladder_; }
    const DegradationLadder &ladder() const { return ladder_; }

    /** A fault was detected in speculative state (routed invariant
     *  violation or reported corruption): feed the ladder. */
    void noteSpeculativeFault();

    /** @{ Statistics. */
    Counter intervals;
    Counter traditionalIntervals;
    Counter bufferIntervals;
    Counter cyclesTraditional;
    Counter cyclesBuffer;
    Counter chainGenCycles;
    Counter runaheadMisses;       ///< LLC misses from runahead ops.
    Counter suppressedShort;      ///< Enhancement-1 suppressions.
    Counter suppressedOverlap;    ///< Enhancement-2 suppressions.
    Counter noChainNoEntry;       ///< Buffer-only: no chain available.
    Counter chainCacheExactHits;  ///< CC hits matching the ROB chain.
    Counter chainCacheCheckedHits;///< CC hits where a comparison ran.
    Counter checkpoints;          ///< Runahead entries (energy event).
    Counter pcCamSearches;        ///< ROB PC CAM searches.
    Counter regCamSearches;       ///< ROB dest-register CAM searches.
    Counter sqCamSearches;        ///< SQ CAM searches (chain gen).
    Counter robChainReads;        ///< ROB reads during chain read-out.
    Counter speculativeFaults;    ///< Detected speculative faults.
    Counter cachedChainsRejected; ///< Cached chains the checker
                                  ///< flagged and we discarded.
    Counter degradedNoEntry;      ///< Entries blocked: ladder at
                                  ///< no-runahead.
    Counter degradedTraditional;  ///< Buffer entries demoted to
                                  ///< traditional by the ladder.
    /** @} */

    void regStats(StatGroup *parent);

  private:
    /** Chain-cache lookup that runs the checker over the cached chain
     *  and discards entries the checker flags (under the degrade
     *  policy a routed violation marks the chain corrupt). Returns
     *  nullptr on miss or rejection. */
    const DependenceChain *lookupTrustedChain(Pc pc);

    /** Algorithm 1 for the blocking load @p head, with the checker's
     *  cross-check of the generator's CAM lookups. */
    ChainResult generateChain(const Rob &rob, const StoreQueue &sq,
                              const DynUop &head);

    RunaheadPolicy policy_;
    RunaheadMode mode_ = RunaheadMode::kNone;
    Cycle blockingReady_ = 0;
    Cycle bufferIssueStart_ = 0;
    std::uint64_t farthestInstr_ = 0;

    RunaheadCache runaheadCache_;
    ChainGenerator chainGen_;
    ChainCache chainCache_;
    RunaheadBuffer buffer_;
    DegradationLadder ladder_;
    InvariantChecker *checker_ = nullptr;
    FaultInjector *faults_ = nullptr;
    StatGroup statGroup_;
};

} // namespace rab

#endif // RAB_RUNAHEAD_RUNAHEAD_CONTROLLER_HH
