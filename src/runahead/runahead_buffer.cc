#include "runahead/runahead_buffer.hh"

#include "common/logging.hh"

namespace rab
{

RunaheadBuffer::RunaheadBuffer(int capacity)
    : capacity_(capacity), statGroup_("runahead_buffer")
{
    if (capacity <= 0)
        fatal("runahead buffer: bad capacity %d", capacity);
}

void
RunaheadBuffer::fill(const DependenceChain &chain)
{
    chain_ = chain;
    if (static_cast<int>(chain_.size()) > capacity_)
        chain_.resize(capacity_);
    index_ = 0;
    iterations_ = 0;
    active_ = true;
    ++fills;
}

const ChainOp &
RunaheadBuffer::peek() const
{
    if (!hasOp())
        panic("runahead buffer: peek while inactive/empty");
    return chain_[index_];
}

void
RunaheadBuffer::advance()
{
    if (!hasOp())
        panic("runahead buffer: advance while inactive/empty");
    ++opsIssued;
    ++index_;
    if (index_ >= chain_.size()) {
        // Dependence chains are treated as loops (Section 4.3).
        index_ = 0;
        ++iterations_;
        ++loops;
    }
}

void
RunaheadBuffer::deactivate()
{
    active_ = false;
    chain_.clear();
    index_ = 0;
}

void
RunaheadBuffer::regStats(StatGroup *parent)
{
    statGroup_.addCounter("fills", &fills);
    statGroup_.addCounter("ops_issued", &opsIssued);
    statGroup_.addCounter("loops", &loops);
    if (parent)
        parent->addChild(&statGroup_);
}

} // namespace rab
