/**
 * @file
 * Reorder buffer: a fixed-capacity circular buffer of DynUops.
 *
 * Slots are *physical* indices that stay stable while an entry is live,
 * so the RS, store queue and writeback queue can reference entries
 * safely across head pops. The runahead buffer's dependence-chain
 * generator searches the ROB with PC and destination-register CAMs
 * only when a load blocks retirement; it builds its lookups over the
 * live window at that moment (ChainGenerator::generate), so the ROB
 * keeps no per-key bookkeeping. findOldestByPc / findProducer are the
 * whole-window linear searches: the reference the invariant checker
 * compares the generator's lookups against (checkRobIndexes). The
 * modelled cycle costs of the searches are charged by the caller.
 */

#ifndef RAB_BACKEND_ROB_HH
#define RAB_BACKEND_ROB_HH

#include <vector>

#include "backend/dyn_uop.hh"
#include "common/types.hh"

namespace rab
{

/** The reorder buffer. */
class Rob
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    explicit Rob(int capacity);

    int capacity() const { return capacity_; }
    int size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == capacity_; }

    /** Append at the tail; returns the physical slot. */
    int push(DynUop &&uop);

    /** @{ In-place push, for the rename hot path: beginPush() resets
     *  and returns the tail entry for the caller to fill directly (no
     *  intermediate DynUop copy); finishPush() makes it live.
     *  Abandoning a begun push (never calling finishPush) is allowed —
     *  the slot stays dead. */
    DynUop &beginPush();
    int finishPush();
    /** @} */

    /** Oldest entry. */
    DynUop &head();
    const DynUop &head() const;
    int headSlot() const { return head_; }

    /** Retire the oldest entry. */
    void popHead();

    /** Youngest entry's physical slot (-1 when empty). */
    int tailSlot() const;

    /** Remove the youngest entry (squash). */
    void popTail();

    /** Access by physical slot. */
    DynUop &slot(int phys_slot);
    const DynUop &slot(int phys_slot) const;

    /** True if @p phys_slot currently holds a live entry with @p seq. */
    bool validSlot(int phys_slot, SeqNum seq) const;

    /** Logical index (0 = oldest) → physical slot. */
    int logicalToSlot(int logical) const;

    /**
     * PC CAM: find the *oldest* live entry with @p pc that is younger
     * than @p after_seq, scanning from the head. Returns -1 when
     * absent.
     */
    int findOldestByPc(Pc pc, SeqNum after_seq) const;

    /**
     * Destination-register CAM: youngest entry older than @p before_seq
     * whose architectural destination is @p reg, scanning from the
     * tail. Returns -1.
     */
    int findProducer(ArchReg reg, SeqNum before_seq) const;

    void clear();

  private:
    /** Wrap @p unwrapped (a head_ + offset sum, offset <= capacity_)
     *  into [0, capacity_) — capacity is not a power of two, so a
     *  compare-subtract beats the integer division of a modulo. */
    int wrapSlot(int unwrapped) const
    {
        return unwrapped >= capacity_ ? unwrapped - capacity_
                                      : unwrapped;
    }

    int capacity_;
    int head_ = 0;
    int size_ = 0;
    std::vector<DynUop> entries_;
    std::vector<bool> live_;
};

} // namespace rab

#endif // RAB_BACKEND_ROB_HH
