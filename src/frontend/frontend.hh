/**
 * @file
 * Front-end: fetch through the L1 I-cache following the branch
 * predictor, plus a fixed-depth decode pipe feeding rename.
 *
 * The front-end is the structure the runahead buffer clock-gates: in
 * buffer mode the core calls setGated(true) and the front-end performs
 * no work and burns no dynamic energy, which is the paper's central
 * energy mechanism.
 */

#ifndef RAB_FRONTEND_FRONTEND_HH
#define RAB_FRONTEND_FRONTEND_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "frontend/branch_predictor.hh"
#include "isa/program.hh"
#include "memory/memory_system.hh"
#include "stats/stats.hh"

namespace rab
{

/** Front-end configuration. */
struct FrontendConfig
{
    int fetchWidth = 4;
    int decodeDepth = 2;        ///< Cycles between fetch and rename.
    int fetchQueueEntries = 32; ///< Decoded-uop queue capacity.
    int uopBytes = 8;           ///< Table 1: micro-op size 8 bytes.
    Addr instBase = 0x4000000;  ///< Base byte address of code.
};

/** A fetched, decoded uop waiting for rename. */
struct FetchedUop
{
    Pc pc = 0;
    Uop sop;
    bool predTaken = false;
    Pc predTarget = 0;
    std::uint64_t historySnapshot = 0;
    Cycle readyCycle = 0; ///< Cycle it emerges from the decode pipe.
};

/** The fetch + decode front-end. */
class Frontend
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    Frontend(const FrontendConfig &config, const Program *program,
             BranchPredictor *bp, MemorySystem *mem);

    /** Fetch up to fetchWidth uops this cycle. */
    void tick(Cycle now);

    /** True if a decoded uop is available to rename at @p now. */
    bool hasReady(Cycle now) const;

    /** Inspect the oldest decoded uop (must be hasReady()). */
    const FetchedUop &peek() const;

    /** Pop the oldest decoded uop (must be hasReady()). */
    FetchedUop pop();

    /** Squash everything fetched and restart at @p pc from @p when. */
    void redirect(Pc pc, Cycle when);

    /** Clock-gate (runahead buffer mode) or ungate the front-end. */
    void setGated(bool gated) { gated_ = gated; }
    bool gated() const { return gated_; }

    /** @{ Fast-forward queries: expose the conditions under which
     *  tick() performs no work, so the core can prove a cycle window
     *  is quiescent before skipping it. */
    bool queueEmpty() const { return queueCount_ == 0; }
    bool queueFull() const { return queueCount_ >= config_.fetchQueueEntries; }
    /** Cycle the current I-cache stall / redirect bubble ends. */
    Cycle stalledUntil() const { return stalledUntil_; }
    /** Decode-ready cycle of the oldest queued uop (queue nonempty). */
    Cycle frontReadyCycle() const { return peek().readyCycle; }
    /** @} */

    /** Bulk-account @p count skipped cycles starting at @p now exactly
     *  as that many no-work tick() calls would have: the caller (the
     *  core's fast-forward engine) guarantees no fetch could occur and
     *  that the whole window falls in a single idle class. */
    void accountSkippedCycles(Cycle now, std::uint64_t count);

    /** @{ Statistics / energy events. */
    Counter fetchedUops;     ///< Uops fetched+decoded (dynamic energy).
    Counter activeCycles;    ///< Cycles with fetch activity.
    Counter gatedCycles;     ///< Cycles explicitly clock-gated.
    Counter idleCycles;      ///< Cycles with no fetch work (queue full,
                             ///< I-cache stall, redirect bubble).
    Counter icacheStallCycles;
    /** @} */

    void regStats(StatGroup *parent);

  private:
    FrontendConfig config_;
    const Program *program_;
    BranchPredictor *bp_;
    MemorySystem *mem_;

    Pc fetchPc_ = 0; ///< Invariant: always in [0, program size).
    Addr lineMask_ = 0; ///< I-cache line size - 1 (power of two).
    bool gated_ = false;
    Cycle stalledUntil_ = 0; ///< I-cache miss or redirect bubble.
    /** @{ Decoded-uop queue: a fixed ring sized at construction
     *  (fetchQueueEntries), replacing a deque whose block allocation
     *  churned on the fetch/rename hot path. */
    std::vector<FetchedUop> queue_;
    int queueHead_ = 0;
    int queueCount_ = 0;
    /** @} */
    StatGroup statGroup_;
};

} // namespace rab

#endif // RAB_FRONTEND_FRONTEND_HH
