/**
 * @file
 * Microarchitectural invariant checker.
 *
 * The simulator's correctness hinges on cross-module invariants that no
 * single structure can enforce alone: ROB age order, store-queue /
 * ROB agreement, the rename map and free list partitioning the physical
 * register file, Algorithm 1 chain well-formedness, exact
 * checkpoint/restore around runahead intervals, and runahead store
 * containment. The checker validates them from the outside, each cycle
 * and at every mode transition, gated by CheckLevel so production runs
 * pay nothing.
 *
 * A violation logs a state dump through common/logging and raises an
 * InvariantViolation carrying the cycle, module and invariant name, so
 * tests can assert that deliberately corrupted state is caught. What
 * "raises" means is policy-controlled (CheckPolicy): under kThrow the
 * violation is thrown; under kDegrade violations in *speculative*
 * state (chain, chain cache, runahead containment) are routed to a
 * degrade sink — the runahead degradation ladder — and simulation
 * continues, because the paper's containment argument guarantees they
 * cannot corrupt architectural results. Architectural-structure
 * violations (ROB, LSQ, rename) throw under every policy: past that
 * point the simulation is meaningless.
 */

#ifndef RAB_CHECKER_INVARIANT_CHECKER_HH
#define RAB_CHECKER_INVARIANT_CHECKER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/rename.hh"
#include "checker/check_level.hh"
#include "common/types.hh"
#include "runahead/chain.hh"
#include "stats/stats.hh"

namespace rab
{

class Rob;
class ChainGenerator;
class StoreQueue;
class RunaheadController;
class Program;
class WritebackQueue;
class Frontend;
class ReservationStation;
class ChainEngine;
struct DynUop;

/** Thrown (after logging a state dump) when an invariant fails. */
class InvariantViolation : public std::runtime_error
{
  public:
    InvariantViolation(Cycle cycle, std::string module,
                       std::string invariant, std::string detail);

    Cycle cycle() const { return cycle_; }
    const std::string &module() const { return module_; }
    const std::string &invariant() const { return invariant_; }
    const std::string &detail() const { return detail_; }

  private:
    Cycle cycle_;
    std::string module_;
    std::string invariant_;
    std::string detail_;
};

/** Read-only views of the structures the checker validates. Any pointer
 *  may be null; the corresponding checks are skipped (unit tests drive
 *  single invariants against partial contexts). */
struct CheckerContext
{
    const Rob *rob = nullptr;
    const StoreQueue *sq = nullptr;
    const PhysRegFile *prf = nullptr;
    const Rat *rat = nullptr;
    const RunaheadController *runahead = nullptr;
    const Program *program = nullptr;
    const std::array<std::uint64_t, kNumArchRegs> *archValues = nullptr;
    /** @{ Fast-forward legality inputs: the event sources the core's
     *  quiescence predicate reasons about. */
    const WritebackQueue *wbq = nullptr;
    const Frontend *frontend = nullptr;
    const ReservationStation *rs = nullptr;
    /** @} */
    /** Continuous Runahead engine (CRE configs only): audited for the
     *  prefetch-only containment invariant at full check level. */
    const ChainEngine *engine = nullptr;
};

/** The checker. One instance per Core; also constructible standalone
 *  around individual structures for unit tests. */
class InvariantChecker
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    InvariantChecker(CheckLevel level, const CheckerContext &ctx);

    CheckLevel level() const { return level_; }
    bool enabled() const { return level_ != CheckLevel::kOff; }

    /** @{ Violation policy (see file comment). Default kThrow. The
     *  degrade sink receives every routed violation; without a sink,
     *  kDegrade still throws. */
    void setPolicy(CheckPolicy policy) { policy_ = policy; }
    CheckPolicy policy() const { return policy_; }
    using DegradeSink = std::function<void(const InvariantViolation &)>;
    void setDegradeSink(DegradeSink sink) { sink_ = std::move(sink); }

    /** True for modules whose violations only ever concern speculative
     *  state (safe to route to the degradation ladder). */
    static bool isSpeculativeModule(const char *module);
    /** @} */

    /** One-line diagnostic snapshot of the watched structures (also
     *  attached to every violation and watchdog report). */
    std::string stateDump() const;

    /** Cycles between full structural scans at kFull (spot checks still
     *  run every cycle). */
    static constexpr Cycle kFullScanPeriod = 16;

    /** @{ Hook points, called by Core / RunaheadController. */

    /** End of every simulated cycle. */
    void onCycle(Cycle now);

    /**
     * The core is about to fast-forward from cycle @p from directly to
     * cycle @p to (ticks at cycles [from, to) are skipped). Verifies
     * the legality invariant — no pipeline event (writeback, commit,
     * issue, rename, fetch, runahead transition) may fall inside the
     * skipped window — by re-deriving quiescence independently from
     * the context structures, then replicates the per-cycle check
     * accounting (spot checks, periodic full scans) the skipped ticks
     * would have performed, so checker statistics stay identical to
     * tick-by-tick execution. Violations here are simulator bugs and
     * throw under every policy.
     */
    void onFastForward(Cycle from, Cycle to);

    /** Immediately before the ROB pops @p uop for (pseudo-)retirement:
     *  retirement happens at the head only, oldest first, completed. */
    void onRetire(const DynUop &uop, int rob_slot);

    /** A load was forwarded from the store queue: program order. */
    void onForward(SeqNum load_seq, SeqNum store_seq);

    /** A store is about to access the real memory hierarchy. */
    void onRealStore(Addr addr);

    /** After runahead entry: checkpoint must capture the architectural
     *  state exactly. */
    void onRunaheadEnter(const ArchCheckpoint &checkpoint);

    /** After runahead exit + restore: state must match the entry
     *  snapshot exactly and the pipeline must be clean. */
    void onRunaheadExit(const ArchCheckpoint &checkpoint);

    /** ChainGenerator::generate just ran for the blocking load
     *  (@p blocking_pc, @p blocking_seq) against the watched ROB: at
     *  kFull, cross-check the CAM lookups it built (checkRobIndexes). */
    void onChainGenerated(const ChainGenerator &gen, Pc blocking_pc,
                          SeqNum blocking_seq);

    /** A dependence chain was generated (or pulled from the chain
     *  cache) for the blocking load at @p blocking_pc. */
    void checkChain(const DependenceChain &chain, Pc blocking_pc,
                    int max_length);

    /** Chain-cache discipline: entries are only ever indexed by their
     *  generating blocking-load PC. */
    void onChainCacheInsert(Pc pc, const DependenceChain &chain);
    void onChainCacheHit(Pc pc, const DependenceChain &chain);
    /** @} */

    /** @{ Individual structural scans (public so tests can target one
     *  invariant at a time). Each throws InvariantViolation on
     *  failure. */
    void checkRobOrder();
    void checkRobIndexes(const ChainGenerator &gen, Pc blocking_pc,
                         SeqNum blocking_seq);
    void checkStoreQueue();
    void checkRenameState();
    void checkArchStateFrozen();
    /** @} */

    /** @{ Statistics. */
    Counter checksRun;         ///< Structural scans completed.
    Counter violations;        ///< Violations raised.
    Counter violationsRouted;  ///< Violations routed to the degrade
                               ///< sink instead of thrown.
    /** @} */

    void regStats(StatGroup *parent);

  private:
    /** Raise a violation. Returns normally (instead of throwing) only
     *  when the policy routed it to the degrade sink; callers must be
     *  prepared to continue past a routed violation. */
    void violate(const char *module, const char *invariant,
                 std::string detail);
    void spotChecks();
    void fullScan();

    CheckLevel level_;
    CheckPolicy policy_ = CheckPolicy::kThrow;
    DegradeSink sink_;
    CheckerContext ctx_;
    Cycle now_ = 0;
    bool inRunahead_ = false;
    std::array<std::uint64_t, kNumArchRegs> entrySnapshot_{};
    std::vector<std::uint8_t> refMarks_; ///< Scratch: PRF reference map.
    StatGroup statGroup_;
};

} // namespace rab

#endif // RAB_CHECKER_INVARIANT_CHECKER_HH
