#include "backend/lsq.hh"

#include "common/logging.hh"

namespace rab
{

StoreQueue::StoreQueue(int capacity)
    : capacity_(capacity)
{
    if (capacity <= 0)
        fatal("StoreQueue: bad capacity %d", capacity);
}

void
StoreQueue::allocate(SeqNum seq, int rob_slot)
{
    if (full())
        panic("StoreQueue: allocate when full");
    if (!entries_.empty() && entries_.back().seq >= seq)
        panic("StoreQueue: out-of-order allocation");
    Entry e;
    e.seq = seq;
    e.robSlot = rob_slot;
    entries_.push_back(e);
}

StoreQueue::Entry *
StoreQueue::find(SeqNum seq)
{
    for (Entry &e : entries_) {
        if (e.seq == seq)
            return &e;
    }
    return nullptr;
}

void
StoreQueue::setAddress(SeqNum seq, Addr addr, bool poisoned)
{
    Entry *e = find(seq);
    if (!e)
        panic("StoreQueue: setAddress for unknown store");
    e->wordAddr = wordOf(addr);
    e->addrPoisoned = poisoned;
}

void
StoreQueue::setData(SeqNum seq, std::uint64_t data, bool poisoned)
{
    Entry *e = find(seq);
    if (!e)
        panic("StoreQueue: setData for unknown store");
    e->data = data;
    e->dataReady = true;
    e->dataPoisoned = poisoned;
}

SqSearch
StoreQueue::searchForLoad(SeqNum load_seq, Addr addr)
{
    ++searches;
    const Addr word = wordOf(addr);
    SqSearch result;
    // Scan youngest-to-oldest among stores older than the load.
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
        const Entry &e = *it;
        if (e.seq >= load_seq)
            continue;
        if (e.wordAddr == kNoAddr && !e.addrPoisoned) {
            // Unresolved older store: cannot disambiguate.
            result.kind = SqSearch::Kind::kUnknownAddr;
            return result;
        }
        if (e.addrPoisoned) {
            // Runahead: a poisoned store address matches nothing (the
            // store is treated as a NOP, per the runahead scheme).
            continue;
        }
        if (e.wordAddr == word) {
            if (!e.dataReady) {
                result.kind = SqSearch::Kind::kNotReady;
            } else {
                result.kind = SqSearch::Kind::kForward;
                result.data = e.data;
                result.poisoned = e.dataPoisoned;
                ++forwards;
            }
            result.storeSeq = e.seq;
            result.storeRobSlot = e.robSlot;
            return result;
        }
    }
    return result;
}

int
StoreQueue::findStoreRobSlot(SeqNum before_seq, Addr addr) const
{
    const Addr word = wordOf(addr);
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
        const Entry &e = *it;
        if (e.seq >= before_seq)
            continue;
        if (e.wordAddr != kNoAddr && e.wordAddr == word)
            return e.robSlot;
    }
    return -1;
}

void
StoreQueue::release(SeqNum seq)
{
    if (entries_.empty() || entries_.front().seq != seq)
        panic("StoreQueue: release out of order");
    entries_.pop_front();
}

void
StoreQueue::squashAfter(SeqNum seq)
{
    while (!entries_.empty() && entries_.back().seq > seq)
        entries_.pop_back();
}

} // namespace rab
