#include "backend/rob.hh"

#include "common/logging.hh"

namespace rab
{

Rob::Rob(int capacity)
    : capacity_(capacity)
{
    if (capacity <= 0)
        fatal("Rob: bad capacity %d", capacity);
    entries_.resize(capacity);
    live_.assign(capacity, false);
}

int
Rob::push(DynUop &&uop)
{
    if (full())
        panic("Rob: push when full");
    const int slot = wrapSlot(head_ + size_);
    entries_[slot] = std::move(uop);
    live_[slot] = true;
    ++size_;
    return slot;
}

DynUop &
Rob::beginPush()
{
    if (full())
        panic("Rob: push when full");
    const int slot = wrapSlot(head_ + size_);
    entries_[slot] = DynUop{};
    return entries_[slot];
}

int
Rob::finishPush()
{
    const int slot = wrapSlot(head_ + size_);
    live_[slot] = true;
    ++size_;
    return slot;
}

DynUop &
Rob::head()
{
    if (empty())
        panic("Rob: head of empty buffer");
    return entries_[head_];
}

const DynUop &
Rob::head() const
{
    if (empty())
        panic("Rob: head of empty buffer");
    return entries_[head_];
}

void
Rob::popHead()
{
    if (empty())
        panic("Rob: popHead of empty buffer");
    live_[head_] = false;
    head_ = wrapSlot(head_ + 1);
    --size_;
}

int
Rob::tailSlot() const
{
    if (empty())
        return -1;
    return wrapSlot(head_ + size_ - 1);
}

void
Rob::popTail()
{
    if (empty())
        panic("Rob: popTail of empty buffer");
    live_[tailSlot()] = false;
    --size_;
}

DynUop &
Rob::slot(int phys_slot)
{
    if (phys_slot < 0 || phys_slot >= capacity_ || !live_[phys_slot])
        panic("Rob: access to dead slot %d", phys_slot);
    return entries_[phys_slot];
}

const DynUop &
Rob::slot(int phys_slot) const
{
    if (phys_slot < 0 || phys_slot >= capacity_ || !live_[phys_slot])
        panic("Rob: access to dead slot %d", phys_slot);
    return entries_[phys_slot];
}

bool
Rob::validSlot(int phys_slot, SeqNum seq) const
{
    return phys_slot >= 0 && phys_slot < capacity_ && live_[phys_slot]
        && entries_[phys_slot].seq == seq;
}

int
Rob::logicalToSlot(int logical) const
{
    if (logical < 0 || logical >= size_)
        panic("Rob: bad logical index %d (size %d)", logical, size_);
    return wrapSlot(head_ + logical);
}

int
Rob::findOldestByPc(Pc pc, SeqNum after_seq) const
{
    for (int i = 0; i < size_; ++i) {
        const int slot = wrapSlot(head_ + i);
        const DynUop &uop = entries_[slot];
        if (uop.seq > after_seq && uop.pc == pc)
            return slot;
    }
    return -1;
}

int
Rob::findProducer(ArchReg reg, SeqNum before_seq) const
{
    for (int i = size_ - 1; i >= 0; --i) {
        const int slot = wrapSlot(head_ + i);
        const DynUop &uop = entries_[slot];
        if (uop.seq < before_seq && uop.sop.dest == reg)
            return slot;
    }
    return -1;
}

void
Rob::clear()
{
    head_ = 0;
    size_ = 0;
    live_.assign(capacity_, false);
}

} // namespace rab
