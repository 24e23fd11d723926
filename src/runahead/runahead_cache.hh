/**
 * @file
 * Runahead cache: a tiny 512-byte, 4-way set-associative cache with
 * 8-byte lines (Table 1) that holds speculative store data during
 * runahead so it can be forwarded to runahead loads. Store results must
 * never become globally observable, so this structure is cleared on
 * every runahead exit.
 */

#ifndef RAB_RUNAHEAD_RUNAHEAD_CACHE_HH
#define RAB_RUNAHEAD_RUNAHEAD_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "stats/stats.hh"

namespace rab
{

/** Runahead cache configuration. */
struct RunaheadCacheConfig
{
    std::uint64_t sizeBytes = 512;
    int associativity = 4;
    int lineBytes = 8;
};

/** The runahead store-data cache. */
class RunaheadCache
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    explicit RunaheadCache(const RunaheadCacheConfig &config);

    /** Record store data for the word containing @p addr. */
    void write(Addr addr, std::uint64_t data);

    /** Look up forwardable data. Returns true and fills @p data on a
     *  hit. */
    bool read(Addr addr, std::uint64_t &data);

    /** Invalidate everything (runahead exit). */
    void clear();

    std::uint64_t occupancy() const;

    /** @{ Statistics / energy events. */
    Counter writes;
    Counter readHits;   ///< Forwarding hits.
    Counter readMisses; ///< Forwarding misses.
    /** @} */

    void regStats(StatGroup *parent);

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t data = 0;
        std::uint64_t lruStamp = 0;
    };

    std::size_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    RunaheadCacheConfig config_;
    int numSets_;
    int lineShift_;
    std::vector<Line> lines_;
    std::uint64_t lruCounter_ = 0;
    StatGroup statGroup_;
};

} // namespace rab

#endif // RAB_RUNAHEAD_RUNAHEAD_CACHE_HH
