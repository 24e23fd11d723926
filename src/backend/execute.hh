/**
 * @file
 * Execution-side helpers: the writeback event queue that carries
 * completion events (ALU latencies, cache hits, DRAM fills) back to the
 * pipeline, and the per-cycle issue port tracker.
 */

#ifndef RAB_BACKEND_EXECUTE_HH
#define RAB_BACKEND_EXECUTE_HH

#include <vector>

#include "common/types.hh"

namespace rab
{

/** A pending completion. */
struct WbEvent
{
    Cycle when = 0;
    int robSlot = -1;
    SeqNum seq = kNoSeqNum;

    bool operator>(const WbEvent &other) const { return when > other.when; }
};

/**
 * Min-heap of scheduled writebacks. Events for squashed uops are
 * filtered by the consumer via Rob::validSlot (slot, seq) checks.
 */
class WritebackQueue
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    void schedule(Cycle when, int rob_slot, SeqNum seq);

    /** Pop every event with when <= now. The returned buffer is owned
     *  by the queue and reused across calls (no per-cycle allocation);
     *  it stays valid until the next popReady(). */
    const std::vector<WbEvent> &popReady(Cycle now);

    /** Cycle of the next pending event, or kNoSeqNum when empty. */
    Cycle nextEventCycle() const;

    bool empty() const { return heap_.empty(); }
    void clear();

  private:
    /** Min-heap on `when` under std::greater<>, kept with push_heap /
     *  pop_heap. Same-cycle events pop in the order that heap layout
     *  gives, which the pipeline can observe. */
    std::vector<WbEvent> heap_;
    std::vector<WbEvent> readyBuf_; ///< popReady() scratch, reused.
};

/** Issue-port budget for one cycle: total width plus D-cache ports. */
class IssuePorts
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    IssuePorts(int width, int mem_ports)
        : width_(width), memPorts_(mem_ports)
    {
    }

    void newCycle()
    {
        usedWidth_ = 0;
        usedMem_ = 0;
    }

    bool takeAlu()
    {
        if (usedWidth_ >= width_)
            return false;
        ++usedWidth_;
        return true;
    }

    bool takeMem()
    {
        if (usedWidth_ >= width_ || usedMem_ >= memPorts_)
            return false;
        ++usedWidth_;
        ++usedMem_;
        return true;
    }

  private:
    int width_;
    int memPorts_;
    int usedWidth_ = 0;
    int usedMem_ = 0;
};

} // namespace rab

#endif // RAB_BACKEND_EXECUTE_HH
