/**
 * @file
 * Generic set-associative, write-back, LRU cache tag/state array.
 *
 * The cache models tags and replacement only; data values live in the
 * functional memory image. Timing (latencies, miss handling) is
 * composed by MemorySystem.
 */

#ifndef RAB_MEMORY_CACHE_HH
#define RAB_MEMORY_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "stats/stats.hh"

namespace rab
{

/** Configuration for one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    int associativity = 8;
    int lineBytes = 64;
    int latency = 3; ///< Hit latency in core cycles.
};

/** Result of looking a line up. */
struct CacheLookup
{
    bool hit = false;
    bool wasPrefetched = false; ///< Line was installed by a prefetch and
                                ///< had not yet been demand-referenced.
};

/** Information about a line evicted by an insertion. */
struct Eviction
{
    bool valid = false;     ///< An occupied line was evicted.
    bool dirty = false;     ///< The victim needs a writeback.
    Addr lineAddr = kNoAddr;///< Victim line address (line-aligned).
    bool prefetchUnused = false; ///< Victim was an unused prefetch.
};

/** Set-associative write-back cache with true-LRU replacement. */
class Cache
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    explicit Cache(const CacheConfig &config);

    const CacheConfig &config() const { return config_; }

    /** Line-align an address. */
    Addr lineAddr(Addr addr) const { return addr & ~Addr(lineBytes() - 1); }
    int lineBytes() const { return config_.lineBytes; }

    /**
     * Look up @p addr. On a hit, updates LRU, clears the prefetch bit,
     * and sets the dirty bit when @p is_write.
     */
    CacheLookup access(Addr addr, bool is_write);

    /** Tag check with no state update (for instrumentation). */
    bool probe(Addr addr) const;

    /**
     * Install the line containing @p addr, evicting the LRU way.
     * @param is_write  install in dirty state.
     * @param is_prefetch  mark as prefetched (for accuracy tracking).
     */
    Eviction insert(Addr addr, bool is_write, bool is_prefetch = false);

    /** Invalidate the line if present; returns true if it was dirty. */
    bool invalidate(Addr addr);

    /** Number of valid lines currently resident. */
    std::uint64_t occupancy() const;

    /** Line-aligned addresses of every valid resident line, in
     *  deterministic (set, way) order. Containment checks and tests;
     *  never a hot path. */
    std::vector<Addr> validLines() const;

    /** Reset all tags to invalid. */
    void flush();

    /** @{ Access statistics, maintained by access(). */
    Counter hits;
    Counter misses;
    /** @} */

    /** Register stats on @p parent. */
    void regStats(StatGroup *parent);

  private:
    /** LRU stamps fit in 62 bits (a line packs its two flags into the
     *  stamp's word); a run would need 2^62 accesses to reach it. */
    static constexpr std::uint64_t kMaxLruStamp =
        (std::uint64_t{1} << 62) - 1;

    /** 16 bytes. Whether a way holds a line is its validMask_ bit. */
    struct Line
    {
        Addr tag = 0;
        std::uint64_t lruStamp : 62 = 0;
        std::uint64_t dirty : 1 = 0;
        std::uint64_t prefetched : 1 = 0;
    };
    static_assert(sizeof(Line) == 16);

    std::size_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    /** First of @p set's maskWords_ valid-way words. */
    std::uint64_t *setMask(std::size_t set)
    {
        return &validMask_[set * static_cast<std::size_t>(maskWords_)];
    }
    const std::uint64_t *setMask(std::size_t set) const
    {
        return &validMask_[set * static_cast<std::size_t>(maskWords_)];
    }
    bool wayValid(std::size_t set, int way) const
    {
        return (setMask(set)[way / 64] >> (way % 64)) & 1;
    }

    CacheConfig config_;
    int numSets_;
    int lineShift_;
    std::vector<Line> lines_; // numSets_ * associativity, row-major
    std::uint64_t lruCounter_ = 0;

    /** Valid-way bits: maskWords_ words per set, way w at bit w % 64
     *  of word w / 64. The only record of which ways hold a line; it
     *  also narrows scans and insertions to occupied (or the first
     *  free) ways. */
    std::vector<std::uint64_t> validMask_;
    int maskWords_ = 1;

    /** MRU fast path (pure acceleration; replacement and statistics
     *  behaviour is identical to the full way scan): the way hit last
     *  per set, or -1. It always names a valid way: invalidate() and
     *  flush() clear it with the line. */
    int findWay(const Line *base, std::size_t set, Addr tag) const;
    std::vector<int> mruWay_;
    StatGroup statGroup_;
};

} // namespace rab

#endif // RAB_MEMORY_CACHE_HH
