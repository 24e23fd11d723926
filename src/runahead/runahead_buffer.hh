/**
 * @file
 * The runahead buffer (Section 4.3): a 32-uop structure in the rename
 * stage that holds one filtered dependence chain. During buffer-mode
 * runahead the chain is issued to rename as a loop — when the last op
 * issues, the buffer wraps to the first — until the blocking load's
 * data returns. The front-end is clock-gated the whole time.
 */

#ifndef RAB_RUNAHEAD_RUNAHEAD_BUFFER_HH
#define RAB_RUNAHEAD_RUNAHEAD_BUFFER_HH

#include "common/types.hh"
#include "runahead/chain.hh"
#include "stats/stats.hh"

namespace rab
{

/** The runahead buffer. */
class RunaheadBuffer
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    explicit RunaheadBuffer(int capacity);

    int capacity() const { return capacity_; }
    bool active() const { return active_; }
    std::size_t chainLength() const { return chain_.size(); }
    const DependenceChain &chain() const { return chain_; }

    /** Load a chain (truncated to capacity) and start looping. */
    void fill(const DependenceChain &chain);

    /** True if an op is available to rename. */
    bool hasOp() const { return active_ && !chain_.empty(); }

    /** Next op in loop order. */
    const ChainOp &peek() const;

    /** Advance the loop pointer. Counts completed iterations. */
    void advance();

    /** Stop issuing and drop the chain (runahead exit). */
    void deactivate();

    std::uint64_t iterationsCompleted() const { return iterations_; }

    /** @{ Statistics. */
    Counter fills;
    Counter opsIssued; ///< Uops issued to rename.
    Counter loops;     ///< Chain loop iterations.
    /** @} */

    void regStats(StatGroup *parent);

  private:
    int capacity_;
    bool active_ = false;
    DependenceChain chain_;
    std::size_t index_ = 0;
    std::uint64_t iterations_ = 0;
    StatGroup statGroup_;
};

} // namespace rab

#endif // RAB_RUNAHEAD_RUNAHEAD_BUFFER_HH
