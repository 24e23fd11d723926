#include "runahead/chain_cache.hh"

#include "common/logging.hh"

namespace rab
{

ChainCache::ChainCache(int entries)
    : statGroup_("chain_cache")
{
    if (entries <= 0)
        fatal("chain cache: bad entry count %d", entries);
    slots_.assign(entries, Slot{});
}

const DependenceChain *
ChainCache::lookup(Pc pc)
{
    for (Slot &slot : slots_) {
        if (slot.valid && slot.pc == pc) {
            slot.lruStamp = ++lruCounter_;
            ++hits;
            return &slot.chain;
        }
    }
    ++misses;
    return nullptr;
}

void
ChainCache::insert(Pc pc, const DependenceChain &chain)
{
    ++inserts;
    // No path associativity: at most one chain per PC.
    for (Slot &slot : slots_) {
        if (slot.valid && slot.pc == pc) {
            slot.chain = chain;
            slot.lruStamp = ++lruCounter_;
            return;
        }
    }
    Slot *victim = &slots_[0];
    for (Slot &slot : slots_) {
        if (!slot.valid) {
            victim = &slot;
            break;
        }
        if (slot.lruStamp < victim->lruStamp)
            victim = &slot;
    }
    victim->valid = true;
    victim->pc = pc;
    victim->chain = chain;
    victim->lruStamp = ++lruCounter_;
}

DependenceChain *
ChainCache::faultSlotChain(int idx)
{
    if (idx < 0 || idx >= static_cast<int>(slots_.size())
        || !slots_[idx].valid) {
        return nullptr;
    }
    return &slots_[idx].chain;
}

void
ChainCache::clear()
{
    for (Slot &slot : slots_)
        slot = Slot{};
    // Restart LRU time: replacement order after a clear (e.g. a
    // DegradationLadder re-enable) must not depend on pre-clear
    // history.
    lruCounter_ = 0;
}

void
ChainCache::regStats(StatGroup *parent)
{
    statGroup_.addCounter("hits", &hits);
    statGroup_.addCounter("misses", &misses);
    statGroup_.addCounter("inserts", &inserts);
    if (parent)
        parent->addChild(&statGroup_);
}

} // namespace rab
