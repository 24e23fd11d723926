/**
 * @file
 * The out-of-order core: a value-based, cycle-level model of the
 * pipeline in Figure 6 — fetch, decode, rename, select/wakeup,
 * register read, execute, commit — with the paper's runahead
 * extensions: poison bits in the physical register file, architectural
 * checkpointing, the runahead cache, and the runahead buffer feeding
 * rename when the front-end is clock-gated.
 *
 * Each tick() advances one core cycle, processing (in order) writeback,
 * commit / pseudo-retirement, runahead entry/exit, issue/execute,
 * rename/dispatch and fetch.
 */

#ifndef RAB_BACKEND_CORE_HH
#define RAB_BACKEND_CORE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "backend/dyn_uop.hh"
#include "backend/execute.hh"
#include "backend/lsq.hh"
#include "backend/rename.hh"
#include "backend/reservation_station.hh"
#include "backend/rob.hh"
#include "checker/invariant_checker.hh"
#include "fault/watchdog.hh"
#include "frontend/branch_predictor.hh"
#include "frontend/frontend.hh"
#include "isa/program.hh"
#include "memory/memory_system.hh"
#include "runahead/chain_analysis.hh"
#include "runahead/runahead_controller.hh"
#include "stats/stats.hh"

namespace rab
{

/** Core configuration (defaults reproduce Table 1). */
struct CoreConfig
{
    int renameWidth = 4;
    int issueWidth = 4;
    int commitWidth = 4;
    int robEntries = 192;
    int rsEntries = 92;
    int sqEntries = 48;
    int numPhysRegs = 352;
    int memPorts = 2;          ///< L1D ports.
    int redirectPenalty = 2;   ///< Extra cycles on branch redirect.
    int exitPenalty = 4;       ///< Pipeline restore on runahead exit.
    Cycle stallEntryCycles = 4; ///< Back-pressure stall cycles before a
                                ///< non-full ROB may trigger runahead.
    int minRunaheadDistance = 20; ///< Skip entry when the blocking miss
                                  ///< returns sooner than this (a short
                                  ///< interval cannot repay the exit
                                  ///< flush).
    std::uint64_t deadlockCycles = 2'000'000;

    /** Skip fully-stalled cycle windows by jumping straight to the
     *  next pipeline event (see Core::fastForwardHorizon).
     *  Certified behaviour-preserving by tests/test_fastforward.cc;
     *  disable (--no-fast-forward) for differential debugging. */
    bool fastForward = true;

    /** Invariant checking effort; the RAB_CHECK_LEVEL environment
     *  variable overrides this (the test suite forces "full"). */
    CheckLevel checkLevel = CheckLevel::kOff;

    /** What a detected invariant violation does: throw (tests) or
     *  route speculative-structure violations to the degradation
     *  ladder (production runs). RAB_CHECK_POLICY overrides this. */
    CheckPolicy checkPolicy = CheckPolicy::kThrow;

    /** Forward-progress watchdog (fault recovery layer 1). */
    WatchdogConfig watchdog{};

    FrontendConfig frontend{};
    BranchPredictorConfig bp{};
    RunaheadPolicy runahead{};
};

/** The core. */
class Core
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    Core(const CoreConfig &config, const Program *program,
         MemorySystem *mem);

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** Advance one cycle. */
    void tick();

    /** @{ Driver interface. Simulation's lockstep loop drives every
     *  core through these calls: tick, then — only from a
     *  fully-stalled tick — propose a skip horizon and apply it. */
    /** A fast-forward window may only open from a fully-stalled tick;
     *  an active tick is near-certain to fail the quiescence checks
     *  anyway, and running one extra real tick at a window boundary
     *  is exact by the engine's own contract. */
    bool fastForwardEligible() const
    {
        return config_.fastForward && !pipelineActivity_;
    }
    /** Prove the core quiescent at the current cycle and return the
     *  earliest cycle at which any pipeline event can occur; 0 when
     *  not quiescent (tick normally). Only meaningful when
     *  fastForwardEligible(). */
    Cycle proposeFastForward();
    /** Jump to @p target (> cycle()+1), bulk-replicating every
     *  per-cycle statistic the skipped ticks would have produced. */
    void applyFastForward(Cycle target);
    /** @} */

    Cycle cycle() const { return cycle_; }
    std::uint64_t retired() const { return retired_; }

    /** Hook invoked for every architecturally retired uop (testing /
     *  tracing). */
    using CommitHook = std::function<void(const DynUop &)>;
    void setCommitHook(CommitHook hook) { commitHook_ = std::move(hook); }

    /** Attach a fault injector (may be null): shared with the
     *  runahead controller (chain cache) and used directly for
     *  runahead-buffer uop corruption. */
    void setFaultInjector(FaultInjector *faults)
    {
        faults_ = faults;
        runaheadCtrl_.setFaultInjector(faults);
    }

    /** @{ Component access (tests, figures, energy model). */
    RunaheadController &runahead() { return runaheadCtrl_; }
    const RunaheadController &runahead() const { return runaheadCtrl_; }
    ForwardProgressWatchdog &watchdog() { return watchdog_; }
    const ForwardProgressWatchdog &watchdog() const { return watchdog_; }
    InvariantChecker &checker() { return *checker_; }
    const InvariantChecker &checker() const { return *checker_; }
    Frontend &frontend() { return *frontend_; }
    ChainAnalysis &chainAnalysis() { return chainAnalysis_; }
    MemorySystem &memory() { return *mem_; }
    const CoreConfig &config() const { return config_; }
    StatGroup &stats() { return statGroup_; }
    /** @} */

    /** Architectural value of @p reg (committed state). */
    std::uint64_t archReg(ArchReg reg) const;

    /** @{ Scheduler event counts (energy model inputs). */
    std::uint64_t rsInsertCount() const { return rs_.inserts.value(); }
    std::uint64_t rsWakeupCount() const { return rs_.wakeups.value(); }
    /** @} */

    /** @{ Statistics (also energy events). */
    Counter committedUops;     ///< Architecturally retired.
    Counter pseudoRetiredUops; ///< Retired during runahead.
    Counter renamedUops;
    Counter issuedUops;
    Counter issuedMemUops;
    Counter prfReads;
    Counter prfWrites;
    Counter robWrites;         ///< ROB dispatch writes.
    Counter robReads;          ///< ROB retire reads.
    Counter memStallCycles;    ///< Zero-commit cycles blocked on an
                               ///< outstanding LLC miss (Fig. 1).
    Counter stallLoadOther;    ///< Zero-commit: head load, not an LLC
                               ///< miss (L1/LLC latency, replay).
    Counter stallExec;         ///< Zero-commit: head non-load pending.
    Counter stallEmptyRob;     ///< Zero-commit: ROB empty (refill).
    Counter robFullCycles;
    Counter squashedUops;      ///< Squashed on mispredicts.
    Counter fig2MissTotal;     ///< Normal-mode demand load LLC misses.
    Counter fig2MissSrcOnChip; ///< ... whose source data was on-chip.
    Counter loadsForwarded;    ///< Forwarded from the store queue.
    Counter runaheadCacheForwards;
    Counter loadQueueRetries;  ///< Loads re-issued: memory queue
                               ///< rejected the access.
    Counter storeQueueRetries; ///< Store commits retried likewise.
    Counter memFaultRetries;   ///< Retries caused by an injected
                               ///< fault (drop budget exhausted).
    Counter watchdogFlushes;   ///< Watchdog-driven recovery flushes.
    /** @} */

    /** @{ Fast-forward engine statistics. Registered under their own
     *  "fastforward" child group: these are the only counters allowed
     *  to differ between fast-forwarded and tick-by-tick runs, and the
     *  differential test excludes exactly that subtree. */
    Counter ffWindows;       ///< Quiescent windows skipped.
    Counter ffSkippedCycles; ///< Cycles covered by those windows.
    /** @} */

  private:
    /** @{ Pipeline stages, called by tick() in this order. */
    void doWriteback(Cycle now);
    void doCommit(Cycle now);
    void doRunaheadControl(Cycle now);
    void doIssue(Cycle now);
    void doRename(Cycle now);
    /** @} */

    /** @{ Issue helpers. */
    void issueCompute(int slot, DynUop &uop, Cycle now);
    void issueLoad(int slot, DynUop &uop, Cycle now);
    void issueStore(int slot, DynUop &uop, Cycle now);
    /** @} */

    void resolveBranch(int slot, DynUop &uop, Cycle now);
    void squashYoungerThan(int slot, SeqNum seq);

    /** Write @p reg and wake reservation-station entries waiting on
     *  it. Every PhysRegFile::write() in the core goes through here so
     *  the event-driven wakeup list stays exact. */
    void writePhysReg(PhysReg reg, std::uint64_t value, bool poisoned,
                      bool off_chip);

    void enterRunahead(const EntryDecision &decision, Cycle now);
    void exitRunahead(Cycle now);
    void resetArchState();

    /** @{ Watchdog recovery: abandon all in-flight speculative work
     *  and restart from committed architectural state. */
    void recoverFromWatchdog(Cycle now);
    void flushToArchState(Cycle now);
    /** @} */

    bool inRunahead() const { return runaheadCtrl_.inRunahead(); }
    RunaheadMode mode() const { return runaheadCtrl_.mode(); }

    /** @{ Fast-forward engine (see proposeFastForward()). The
     *  horizon query proves the core quiescent at cycle_ and returns
     *  the earliest cycle at which any pipeline event can occur (0:
     *  not quiescent, tick normally); fastForwardTo() jumps there,
     *  bulk-replicating every per-cycle statistic the skipped ticks
     *  would have produced. */
    Cycle fastForwardHorizon();
    void fastForwardTo(Cycle target);
    /** @} */

    /** decideEntry denial memo: while the pipeline is fully stalled
     *  the controller's inputs are frozen, so a refused runahead entry
     *  stays refused until the ROB head changes, any stage makes
     *  progress, or the degradation ladder moves. Skipping the
     *  re-evaluation keeps per-episode counters (CAM searches,
     *  suppression/no-chain counts, fault-RNG draws) identical between
     *  fast-forwarded and tick-by-tick runs. */
    bool entryDenialValid() const;
    std::uint64_t ladderTransitions() const;

    CoreConfig config_;
    const Program *program_;
    MemorySystem *mem_;

    FunctionalMemory funcMem_;
    BranchPredictor bp_;
    std::unique_ptr<Frontend> frontend_;

    PhysRegFile prf_;
    Rat rat_;
    std::array<std::uint64_t, kNumArchRegs> archValues_{};

    Rob rob_;
    ReservationStation rs_;
    StoreQueue sq_;
    WritebackQueue wbq_;
    IssuePorts ports_;

    RunaheadController runaheadCtrl_;
    ForwardProgressWatchdog watchdog_;
    FaultInjector *faults_ = nullptr;
    ChainAnalysis chainAnalysis_; ///< Figs 3-5: traditional intervals.
    ArchCheckpoint checkpoint_;
    std::unique_ptr<InvariantChecker> checker_; ///< After the structures
                                                ///< it watches.

    Cycle cycle_ = 0;
    SeqNum seqCounter_ = 0;
    std::uint64_t retired_ = 0;
    std::uint64_t fetchedInstrNum_ = 0; ///< Normal-mode renamed uops.
    std::uint64_t retiredAtEntry_ = 0;
    std::uint64_t pseudoRetiredInterval_ = 0;
    Cycle lastCommitCycle_ = 0;
    Cycle stallCyclesSinceCommit_ = 0;
    bool renameProgress_ = false;

    /** @{ decideEntry denial memo (see entryDenialValid()). */
    bool entryDenied_ = false;
    SeqNum entryDeniedSeq_ = kNoSeqNum;
    std::uint64_t entryDeniedLadderSteps_ = 0;
    /** @} */
    bool pipelineActivity_ = false; ///< Any stage progressed this tick.
    Pc resumePc_ = 0; ///< Next-to-commit PC; watchdog restart point
                      ///< when the ROB has already drained.

    CommitHook commitHook_;
    StatGroup statGroup_;
    StatGroup ffStatGroup_; ///< "fastforward" child (see ffWindows).
};

} // namespace rab

#endif // RAB_BACKEND_CORE_HH
