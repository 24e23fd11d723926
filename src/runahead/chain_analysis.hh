/**
 * @file
 * Instrumentation behind the paper's motivation figures.
 *
 * During *traditional* runahead intervals, every executed runahead op
 * is recorded. When a runahead load misses the LLC, its backward
 * dependence slice is reconstructed over the recorded window, giving:
 *   - Figure 3: fraction of runahead-executed ops that belong to some
 *     miss dependence chain ("necessary" ops),
 *   - Figure 4: whether each miss's chain is unique or a repeat within
 *     the current runahead interval (by structural signature),
 *   - Figure 5: average dependence chain length in uops.
 *
 * The history is a flat array kept in sequence order lazily: records
 * are appended in writeback order and merged into the ordered part
 * only when a miss needs the slice walk (or the array reaches its
 * bound). Writeback order is program order up to the core's in-flight
 * window, so the merge moves each record a few places at most, and
 * steady state allocates nothing.
 */

#ifndef RAB_RUNAHEAD_CHAIN_ANALYSIS_HH
#define RAB_RUNAHEAD_CHAIN_ANALYSIS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "backend/dyn_uop.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace rab
{

/** The runahead chain analyser. */
class ChainAnalysis
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    /**
     * @param window     executed-op history depth: the slice walk sees
     *                   the @p window largest sequence numbers recorded
     *                   in the interval (a repeated sequence number
     *                   keeps its first record).
     * @param max_chain  backward-slice length cap.
     */
    explicit ChainAnalysis(int window = 4096, int max_chain = 64);

    /** A runahead interval begins. */
    void beginInterval();

    /** A runahead op executed (traditional mode). Registers are
     *  program registers (below kNumArchRegs; Program rejects others). */
    void recordExec(const DynUop &uop);

    /** A runahead load generated an LLC miss. Call after recordExec. */
    void recordMiss(const DynUop &uop);

    /** The runahead interval ended. */
    void endInterval();

    /** @{ Figure 3. */
    Counter opsExecuted;
    Counter opsNecessary; ///< On a miss's dependence chain.
    /** @} */

    /** @{ Figure 4. */
    Counter chainsTotal;
    Counter chainsRepeated; ///< Repeated within an interval.
    /** @} */

    /** @{ Figure 5. */
    Counter chainLengthSum;
    Counter chainsMeasured;
    /** @} */

    double necessaryFraction() const;
    double repeatedFraction() const;
    double averageChainLength() const;

    void regStats(StatGroup *parent);

  private:
    struct Rec
    {
        SeqNum seq;
        Pc pc;
        ArchReg dest;
        ArchReg src1;
        ArchReg src2;
    };

    /** Merge the appended records into the ordered part (dropping
     *  repeated sequence numbers) and keep the window_ largest. */
    void order();
    /** Sort and deduplicate necessary_. */
    void compactNecessary();
    void clearInterval();

    std::size_t window_;
    int maxChain_;
    bool inInterval_ = false;
    /** Executed-op history: [head_, ordered_) strictly ascending by
     *  seq, [ordered_, size) appended since the last order(); records
     *  below head_ have left the window. */
    std::vector<Rec> history_;
    std::size_t head_ = 0;
    std::size_t ordered_ = 0;
    /** Sequence numbers on some miss's slice, deduplicated lazily:
     *  sorted and unique below necessaryUnique_. */
    std::vector<SeqNum> necessary_;
    std::size_t necessaryUnique_ = 0;
    std::vector<std::uint64_t> signatures_; ///< Sorted, this interval.
    std::vector<Pc> slicePcs_;              ///< recordMiss scratch.
    std::uint64_t intervalExecuted_ = 0;
    StatGroup statGroup_;
};

} // namespace rab

#endif // RAB_RUNAHEAD_CHAIN_ANALYSIS_HH
