#include "backend/execute.hh"

#include <algorithm>
#include <functional>
#include <limits>

namespace rab
{

void
WritebackQueue::schedule(Cycle when, int rob_slot, SeqNum seq)
{
    heap_.push_back(WbEvent{when, rob_slot, seq});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

const std::vector<WbEvent> &
WritebackQueue::popReady(Cycle now)
{
    readyBuf_.clear();
    while (!heap_.empty() && heap_.front().when <= now) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        readyBuf_.push_back(heap_.back());
        heap_.pop_back();
    }
    return readyBuf_;
}

Cycle
WritebackQueue::nextEventCycle() const
{
    if (heap_.empty())
        return std::numeric_limits<Cycle>::max();
    return heap_.front().when;
}

void
WritebackQueue::clear()
{
    heap_.clear();
}

} // namespace rab
