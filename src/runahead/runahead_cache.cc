#include "runahead/runahead_cache.hh"

#include <bit>

#include "common/logging.hh"

namespace rab
{

RunaheadCache::RunaheadCache(const RunaheadCacheConfig &config)
    : config_(config), statGroup_("runahead_cache")
{
    if (config_.lineBytes <= 0
        || (config_.lineBytes & (config_.lineBytes - 1)) != 0) {
        fatal("runahead cache: line size must be a power of two");
    }
    lineShift_ = std::countr_zero(
        static_cast<unsigned>(config_.lineBytes));
    const std::uint64_t lines = config_.sizeBytes / config_.lineBytes;
    if (lines == 0 || lines % config_.associativity != 0)
        fatal("runahead cache: bad geometry");
    numSets_ = static_cast<int>(lines / config_.associativity);
    if ((numSets_ & (numSets_ - 1)) != 0)
        fatal("runahead cache: set count must be a power of two");
    lines_.assign(lines, Line{});
}

std::size_t
RunaheadCache::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & (numSets_ - 1);
}

Addr
RunaheadCache::tagOf(Addr addr) const
{
    return addr >> lineShift_;
}

void
RunaheadCache::write(Addr addr, std::uint64_t data)
{
    ++writes;
    const std::size_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[set * config_.associativity];
    for (int way = 0; way < config_.associativity; ++way) {
        Line &line = base[way];
        if (line.valid && line.tag == tag) {
            line.data = data;
            line.lruStamp = ++lruCounter_;
            return;
        }
    }
    Line *victim = &base[0];
    for (int way = 0; way < config_.associativity; ++way) {
        Line &line = base[way];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lruStamp < victim->lruStamp)
            victim = &line;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->data = data;
    victim->lruStamp = ++lruCounter_;
}

bool
RunaheadCache::read(Addr addr, std::uint64_t &data)
{
    const std::size_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[set * config_.associativity];
    for (int way = 0; way < config_.associativity; ++way) {
        Line &line = base[way];
        if (line.valid && line.tag == tag) {
            line.lruStamp = ++lruCounter_;
            data = line.data;
            ++readHits;
            return true;
        }
    }
    ++readMisses;
    return false;
}

void
RunaheadCache::clear()
{
    lines_.assign(lines_.size(), Line{});
}

std::uint64_t
RunaheadCache::occupancy() const
{
    std::uint64_t count = 0;
    for (const Line &line : lines_) {
        if (line.valid)
            ++count;
    }
    return count;
}

void
RunaheadCache::regStats(StatGroup *parent)
{
    statGroup_.addCounter("writes", &writes);
    statGroup_.addCounter("read_hits", &readHits);
    statGroup_.addCounter("read_misses", &readMisses);
    if (parent)
        parent->addChild(&statGroup_);
}

} // namespace rab
