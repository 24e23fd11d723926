/**
 * @file
 * Deterministic, seed-driven fault injection.
 *
 * The paper's correctness argument is that the runahead buffer and the
 * chain cache are purely speculative: a corrupt or stale chain can only
 * cost performance, never architectural state. The FaultInjector makes
 * that claim testable by deliberately corrupting the speculative and
 * memory layers on reproducible schedules — flipping fields of
 * chain-cache entries and runahead-buffer uops, dropping or delaying
 * DRAM responses, and transiently stalling the memory queue — so the
 * recovery layers (forward-progress watchdog, bounded memory retry,
 * the runahead degradation ladder) can be exercised and the
 * architectural-equivalence guarantee proven differentially.
 *
 * All randomness flows through one xorshift64* generator seeded from
 * FaultConfig::seed, so identical configurations inject identical fault
 * schedules.
 *
 * Corruptions are *structurally legal*: register ids stay within the
 * architectural file, chain PCs stay within the program, and opcode
 * classes are never changed. This models soft errors in the stored
 * fields themselves (wrong values of the right type), which is exactly
 * the class of fault the speculative-containment argument covers; a
 * bit flip that escaped the structure type entirely would be caught by
 * the sanitizer builds instead.
 */

#ifndef RAB_FAULT_FAULT_INJECTOR_HH
#define RAB_FAULT_FAULT_INJECTOR_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/types.hh"
#include "isa/uop.hh"
#include "runahead/chain.hh"
#include "stats/stats.hh"

namespace rab
{

class ChainCache;

/** Fault-injection configuration. All rates are per-opportunity
 *  Bernoulli probabilities in [0, 1]; a rate of 0 disables that fault
 *  kind. The injector as a whole is inert unless enabled. */
struct FaultConfig
{
    bool enabled = false;
    std::uint64_t seed = 1;

    /** Corrupt a random live chain-cache entry (per entry decision). */
    double chainCacheRate = 0.0;

    /** Flip fields of a runahead-buffer uop as it enters rename. */
    double bufferUopRate = 0.0;

    /** Drop a DRAM response (per issue attempt); the memory system
     *  re-issues after a timeout with backoff, boundedly. */
    double dramDropRate = 0.0;

    /** Arbitrarily delay a DRAM response. */
    double dramDelayRate = 0.0;
    // rablint: cycle-ok (bounded fault-knob; applied via Cycle math)
    int dramDelayMaxCycles = 2'000; ///< Injected delays are in
                                    ///< [1, dramDelayMaxCycles].

    /** Open a transient memory-queue stall window (per LLC-miss
     *  allocation attempt) during which all allocations are rejected. */
    double memStallRate = 0.0;
    // rablint: cycle-ok (bounded fault-knob; applied via Cycle math)
    int memStallCycles = 200; ///< Stall window length.

    /** Convenience: set every rate at once (rabsim --fault-rate). */
    void setAllRates(double rate)
    {
        chainCacheRate = rate;
        bufferUopRate = rate;
        dramDropRate = rate;
        dramDelayRate = rate;
        memStallRate = rate;
    }
};

/** The injector. One instance per Simulation, shared by the core side
 *  (chain cache, runahead buffer) and the memory side (DRAM, memory
 *  queue). */
class FaultInjector
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    explicit FaultInjector(const FaultConfig &config);

    const FaultConfig &config() const { return config_; }
    bool enabled() const { return config_.enabled; }

    /** @{ Speculative-side hooks. */

    /** Maybe corrupt one live entry of @p cache in place. Returns true
     *  if a corruption was applied. */
    bool maybeCorruptChainCache(ChainCache &cache);

    /** Corrupt @p chain in place (unconditionally; rate already
     *  rolled). Keeps the chain non-empty and every field structurally
     *  legal. @p program_size bounds rewritten PCs (0 = leave PCs). */
    void corruptChain(DependenceChain &chain, std::size_t program_size);

    /** Maybe flip fields of a buffer-supplied uop entering rename.
     *  Returns true if the uop was altered. */
    bool maybeCorruptUop(Uop &sop);

    /** @} */

    /** @{ Memory-side hooks. */

    /** Roll the drop fault for one DRAM issue attempt. */
    bool dropDramResponse();

    /** Injected extra response latency (0 = none this access). */
    Cycle dramDelay();

    /** True while an injected memory-queue stall window is open at
     *  @p now; may deterministically open a new window. */
    bool memQueueStalled(Cycle now);

    /** @} */

    /** Total injections across every fault kind. */
    std::uint64_t totalInjected() const;

    /** @{ Statistics. */
    Counter chainCorruptions; ///< Chain-cache entries corrupted.
    Counter uopFlips;         ///< Runahead-buffer uops corrupted.
    Counter dramDrops;        ///< DRAM responses dropped.
    Counter dramDelays;       ///< DRAM responses delayed.
    Counter memStallWindows;  ///< Memory-queue stall windows opened.
    /** @} */

    StatGroup &stats() { return statGroup_; }
    void regStats(StatGroup *parent);

  private:
    void corruptUopFields(Uop &sop);

    FaultConfig config_;
    Rng rng_;
    Cycle stallUntil_ = 0;
    StatGroup statGroup_;
};

} // namespace rab

#endif // RAB_FAULT_FAULT_INJECTOR_HH
