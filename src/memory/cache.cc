#include "memory/cache.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace rab
{

namespace
{

int
log2Exact(std::uint64_t v, const char *what)
{
    if (v == 0 || (v & (v - 1)) != 0)
        fatal("cache: %s (%llu) must be a power of two", what,
              (unsigned long long)v);
    return std::countr_zero(v);
}

} // namespace

Cache::Cache(const CacheConfig &config)
    : config_(config), statGroup_(config.name)
{
    if (config_.associativity <= 0)
        fatal("cache %s: bad associativity %d", config_.name.c_str(),
              config_.associativity);
    lineShift_ = log2Exact(config_.lineBytes, "line size");
    const std::uint64_t lines = config_.sizeBytes / config_.lineBytes;
    if (lines % config_.associativity != 0)
        fatal("cache %s: size not divisible into %d ways",
              config_.name.c_str(), config_.associativity);
    numSets_ = static_cast<int>(lines / config_.associativity);
    log2Exact(numSets_, "set count");
    lines_.assign(lines, Line{});
    mruWay_.assign(numSets_, -1);
    maskWords_ = (config_.associativity + 63) / 64;
    validMask_.assign(static_cast<std::size_t>(numSets_) * maskWords_, 0);
}

int
Cache::findWay(const Line *base, std::size_t set, Addr tag) const
{
    // MRU fast path: most references re-touch the way hit last.
    const int mru = mruWay_[set];
    if (mru >= 0 && base[mru].tag == tag)
        return mru;
    // Visit only the valid ways.
    const std::uint64_t *mask = setMask(set);
    for (int word = 0; word < maskWords_; ++word) {
        for (std::uint64_t m = mask[word]; m != 0; m &= m - 1) {
            const int way = word * 64 + std::countr_zero(m);
            if (base[way].tag == tag)
                return way;
        }
    }
    return -1;
}

std::size_t
Cache::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & (numSets_ - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> lineShift_;
}

CacheLookup
Cache::access(Addr addr, bool is_write)
{
    const std::size_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[set * config_.associativity];
    const int way = findWay(base, set, tag);
    if (way >= 0) {
        Line &line = base[way];
        CacheLookup result;
        result.hit = true;
        result.wasPrefetched = line.prefetched;
        line.prefetched = false;
        line.lruStamp = ++lruCounter_;
        if (is_write)
            line.dirty = true;
        mruWay_[set] = way;
        ++hits;
        return result;
    }
    ++misses;
    return CacheLookup{};
}

bool
Cache::probe(Addr addr) const
{
    const std::size_t set = setIndex(addr);
    const Line *base = &lines_[set * config_.associativity];
    return findWay(base, set, tagOf(addr)) >= 0;
}

Eviction
Cache::insert(Addr addr, bool is_write, bool is_prefetch)
{
    const std::size_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[set * config_.associativity];

    // Re-insertion of a resident line just updates state.
    const int resident = findWay(base, set, tag);
    if (resident >= 0) {
        Line &line = base[resident];
        line.lruStamp = ++lruCounter_;
        if (is_write)
            line.dirty = true;
        if (!is_prefetch)
            line.prefetched = false;
        mruWay_[set] = resident;
        return Eviction{};
    }

    // Pick an invalid way (lowest-numbered, as the full scan would),
    // else the LRU way.
    std::uint64_t *mask = setMask(set);
    int victim = -1;
    for (int word = 0; word < maskWords_ && victim < 0; ++word) {
        const int ways = std::min(config_.associativity - word * 64, 64);
        const std::uint64_t free = ways == 64
            ? ~mask[word]
            : ~mask[word] & ((std::uint64_t(1) << ways) - 1);
        if (free != 0)
            victim = word * 64 + std::countr_zero(free);
    }
    Eviction ev;
    if (victim < 0) {
        victim = 0;
        for (int way = 1; way < config_.associativity; ++way) {
            if (base[way].lruStamp < base[victim].lruStamp)
                victim = way;
        }
        const Line &old = base[victim];
        ev.valid = true;
        ev.dirty = old.dirty;
        ev.lineAddr = old.tag << lineShift_;
        ev.prefetchUnused = old.prefetched;
    }

    Line &line = base[victim];
    line.dirty = is_write;
    line.prefetched = is_prefetch;
    line.tag = tag;
    line.lruStamp = ++lruCounter_;
    mask[victim / 64] |= std::uint64_t(1) << (victim % 64);
    mruWay_[set] = victim;
    return ev;
}

bool
Cache::invalidate(Addr addr)
{
    const std::size_t set = setIndex(addr);
    Line *base = &lines_[set * config_.associativity];
    const int way = findWay(base, set, tagOf(addr));
    if (way < 0)
        return false;
    setMask(set)[way / 64] &= ~(std::uint64_t(1) << (way % 64));
    if (mruWay_[set] == way)
        mruWay_[set] = -1;
    return base[way].dirty;
}

std::uint64_t
Cache::occupancy() const
{
    std::uint64_t count = 0;
    for (const std::uint64_t word : validMask_)
        count += static_cast<std::uint64_t>(std::popcount(word));
    return count;
}

std::vector<Addr>
Cache::validLines() const
{
    std::vector<Addr> lines;
    lines.reserve(occupancy());
    const auto ways = static_cast<std::size_t>(config_.associativity);
    for (std::size_t set = 0; set < static_cast<std::size_t>(numSets_);
         ++set) {
        for (int way = 0; way < config_.associativity; ++way) {
            if (wayValid(set, way))
                lines.push_back(lines_[set * ways + way].tag << lineShift_);
        }
    }
    return lines;
}

void
Cache::flush()
{
    lines_.assign(lines_.size(), Line{});
    mruWay_.assign(numSets_, -1);
    std::fill(validMask_.begin(), validMask_.end(), 0);
}

void
Cache::regStats(StatGroup *parent)
{
    statGroup_.addCounter("hits", &hits);
    statGroup_.addCounter("misses", &misses);
    if (parent)
        parent->addChild(&statGroup_);
}

} // namespace rab
