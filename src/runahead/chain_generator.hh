/**
 * @file
 * Dependence-chain generation (the paper's Algorithm 1).
 *
 * When a load blocks the head of the ROB, the generator searches the
 * ROB for a younger dynamic instance of the same PC (a priority PC
 * CAM), then backward-walks producers of its source registers with a
 * destination-register CAM, pulling store-queue producers in for loads,
 * until the source register search list (SRSL) drains or the chain hits
 * the 32-uop cap. Control uops are never included (the ROB holds a
 * branch-predicted stream). The walk is modelled cycle-accurately: up
 * to two destination-register searches per cycle (Section 5), plus one
 * cycle for the PC CAM and ROB read-out at the superscalar width.
 *
 * The CAMs are built when they are queried, not maintained per uop:
 * one pass from the ROB head stops at the PC match and threads every
 * entry it passed onto a per-register producer list. Every consumer the
 * walk asks about is the match or older, so that prefix is all the
 * register CAM can ever return; the lookups equal Rob::findOldestByPc /
 * Rob::findProducer, which the invariant checker verifies at full
 * check level (checkRobIndexes).
 */

#ifndef RAB_RUNAHEAD_CHAIN_GENERATOR_HH
#define RAB_RUNAHEAD_CHAIN_GENERATOR_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "backend/lsq.hh"
#include "backend/rob.hh"
#include "isa/program.hh"
#include "runahead/chain.hh"
#include "stats/stats.hh"

namespace rab
{

/** Chain generator configuration. */
struct ChainGeneratorConfig
{
    int maxChainLength = 32;     ///< Runahead buffer capacity in uops.
    // rablint: cycle-ok (a per-cycle port count, not a cycle quantity)
    int regSearchesPerCycle = 2; ///< Dest-register CAM ports.
    int readoutWidth = 4;        ///< ROB read-out uops per cycle.
    int srslEntries = 16;        ///< Source register search list size.
};

/** Result of one generation attempt. */
struct ChainResult
{
    bool pcFound = false;   ///< A younger instance of the PC existed.
    bool overflow = false;  ///< SRSL was not drained at the length cap
                            ///< (hybrid policy falls back to
                            ///< traditional runahead).
    DependenceChain chain;  ///< Program-ordered filtered chain.

    /** @{ Modelled cost. */
    Cycle generationCycles = 0;
    int pcCamSearches = 0;
    int regCamSearches = 0;
    int sqSearches = 0;
    int robReads = 0;
    /** @} */
};

/** The generator. Stateless between calls apart from statistics and
 *  pooled scratch buffers (reused, never observable in results). */
class ChainGenerator
{
  public:
    explicit ChainGenerator(const ChainGeneratorConfig &config);

    /**
     * Run Algorithm 1.
     *
     * @param rob          the reorder buffer to filter from.
     * @param sq           the store queue (register spill/fill search).
     * @param blocking_pc  PC of the load blocking the ROB head.
     * @param blocking_seq its sequence number.
     */
    ChainResult generate(const Rob &rob, const StoreQueue &sq,
                         Pc blocking_pc, SeqNum blocking_seq);

    const ChainGeneratorConfig &config() const { return config_; }

    /** @{ The CAM lookups the last generate() call built, valid while
     *  the ROB is unchanged: the PC CAM's match slot (-1 when none),
     *  and the destination-register CAM for consumers no younger than
     *  that match (the whole window when there was none). Registers are
     *  program registers (below kNumArchRegs; Program rejects others).
     *  Public for the invariant checker's cross-check. */
    int matchSlot() const { return matchSlot_; }
    int findProducer(ArchReg reg, SeqNum before_seq) const;
    /** @} */

    /** @{ Statistics. */
    Counter attempts;
    Counter noPcMatch; ///< No matching PC in the ROB.
    Counter overflows; ///< Chains that hit the length cap.
    Counter generatedChains;
    Counter generatedOps;
    /** @} */

    void regStats(StatGroup *parent);

  private:
    /** One ROB entry the PC CAM pass walked past, with a destination
     *  register. */
    struct Passed
    {
        SeqNum seq;
        int slot;
        int olderSameDest; ///< Index of the next older writer, or -1.
    };

    /** The PC CAM pass: scan from the head for the oldest instance of
     *  @p pc younger than @p after_seq, threading the entries before it
     *  onto the per-register producer lists. Returns the match slot. */
    int scanWindow(const Rob &rob, Pc pc, SeqNum after_seq);

    ChainGeneratorConfig config_;

    /** @{ Query-time CAM state (see file comment), rebuilt by every
     *  generate() call into reused storage. */
    std::vector<Passed> passed_;
    std::array<int, kNumArchRegs> youngestWriter_; ///< Into passed_.
    int matchSlot_ = -1;
    /** @} */

    /** @{ Algorithm-1 working state, pooled across generate() calls so
     *  the runahead-entry hot path allocates nothing in steady state.
     *  The SRSL is a pure stack; the included set is a slot-indexed
     *  mark array plus the insertion list for enumeration. */
    std::vector<std::pair<ArchReg, SeqNum>> srsl_;
    std::vector<std::uint8_t> includedMark_; ///< Indexed by ROB slot.
    std::vector<int> includedSlots_;
    /** @} */

    StatGroup statGroup_;
};

} // namespace rab

#endif // RAB_RUNAHEAD_CHAIN_GENERATOR_HH
