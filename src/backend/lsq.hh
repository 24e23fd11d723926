/**
 * @file
 * Store queue with store-to-load forwarding.
 *
 * Loads search the queue (a CAM, as the paper notes) for the youngest
 * older store to the same 8-byte word. An older store with an unknown
 * address conservatively blocks the load. The chain generator also
 * searches this queue to pull store data producers into dependence
 * chains (Algorithm 1's "Search store buffer for load address").
 */

#ifndef RAB_BACKEND_LSQ_HH
#define RAB_BACKEND_LSQ_HH

#include <cstdint>
#include <deque>

#include "common/types.hh"
#include "stats/stats.hh"

namespace rab
{

/** Result of a load's store-queue search. */
struct SqSearch
{
    enum class Kind
    {
        kNoMatch,     ///< No older store to this word.
        kForward,     ///< Forward @c data from the matching store.
        kNotReady,    ///< Matching store's data not yet available.
        kUnknownAddr, ///< An older store address is unresolved: stall.
    };

    Kind kind = Kind::kNoMatch;
    std::uint64_t data = 0;
    bool poisoned = false;
    SeqNum storeSeq = kNoSeqNum;
    int storeRobSlot = -1;
};

/** In-order store queue. */
class StoreQueue
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    /** One store's state (public so the invariant checker can audit the
     *  queue against the ROB). */
    struct Entry
    {
        SeqNum seq = kNoSeqNum;
        int robSlot = -1;
        Addr wordAddr = kNoAddr; ///< kNoAddr until computed.
        std::uint64_t data = 0;
        bool dataReady = false;
        bool addrPoisoned = false;
        bool dataPoisoned = false;
    };

    explicit StoreQueue(int capacity);

    int capacity() const { return capacity_; }
    int size() const { return static_cast<int>(entries_.size()); }
    bool full() const { return size() == capacity_; }

    /** Allocate at rename; address/data arrive at execute. */
    void allocate(SeqNum seq, int rob_slot);

    /** Record the computed address (word-aligned internally). */
    void setAddress(SeqNum seq, Addr addr, bool poisoned);

    /** Record the store data once the source register is ready. */
    void setData(SeqNum seq, std::uint64_t data, bool poisoned);

    /** Search for the youngest store older than @p load_seq matching
     *  the word containing @p addr. */
    SqSearch searchForLoad(SeqNum load_seq, Addr addr);

    /** Chain generation: youngest store older than @p before_seq whose
     *  (known) address matches the word of @p addr; -1 if none. */
    int findStoreRobSlot(SeqNum before_seq, Addr addr) const;

    /** Free the oldest entry (store committed). Must match @p seq. */
    void release(SeqNum seq);

    /** Remove entries younger than @p seq (squash). */
    void squashAfter(SeqNum seq);

    void clear() { entries_.clear(); }

    /** Read-only view, oldest first (invariant checker). */
    const std::deque<Entry> &entries() const { return entries_; }

    /** @{ Statistics. */
    Counter forwards;
    Counter searches; ///< CAM search energy events.
    /** @} */

  private:
    static Addr wordOf(Addr addr) { return addr & ~Addr{7}; }
    Entry *find(SeqNum seq);

    int capacity_;
    std::deque<Entry> entries_; ///< Oldest at front.
};

} // namespace rab

#endif // RAB_BACKEND_LSQ_HH
