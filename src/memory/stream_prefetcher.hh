/**
 * @file
 * POWER4-style stream prefetcher with feedback-directed throttling.
 *
 * Matches Table 1: 32 stream trackers, prefetch distance 32 lines,
 * degree 2, prefetching into the last level cache, throttled with a
 * simplified Feedback Directed Prefetching (FDP, Srinath et al. HPCA-13)
 * scheme that adapts (distance, degree) to measured prefetch accuracy.
 *
 * Training: allocation on an LLC demand miss; a stream is confirmed when
 * two further misses continue in the same direction. Confirmed streams
 * issue @c degree prefetches per triggering demand access, keeping the
 * stream head at most @c distance lines ahead of the demand pointer.
 */

#ifndef RAB_MEMORY_STREAM_PREFETCHER_HH
#define RAB_MEMORY_STREAM_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "stats/stats.hh"

namespace rab
{

/** Stream prefetcher configuration. */
struct PrefetcherConfig
{
    bool enabled = false;
    int streams = 32;
    int distance = 32;   ///< Max lines ahead of the demand pointer.
    int degree = 2;      ///< Prefetches issued per trigger.
    bool fdpThrottle = true;
    int fdpInterval = 2048; ///< Prefetches between FDP re-evaluations.
    double fdpHighAccuracy = 0.75;
    double fdpLowAccuracy = 0.40;
};

/** The prefetcher. Owned and driven by MemorySystem. */
class StreamPrefetcher
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    explicit StreamPrefetcher(const PrefetcherConfig &config,
                              int line_bytes);

    /**
     * Observe an LLC demand access and append line addresses to
     * prefetch into @p out.
     *
     * @param line_addr line-aligned demand address.
     * @param was_miss  the demand access missed the LLC.
     * @param out       receives line-aligned prefetch candidates.
     */
    void observe(Addr line_addr, bool was_miss, std::vector<Addr> &out);

    /** A demand access hit a line this prefetcher brought in. */
    void notifyUseful();

    /** A prefetched line was evicted before any demand use. */
    void notifyUnused();

    /** Current FDP aggressiveness as (distance, degree). */
    int currentDistance() const { return distance_; }
    int currentDegree() const { return degree_; }

    const PrefetcherConfig &config() const { return config_; }

    /** @{ Statistics. */
    Counter issued;
    Counter useful;           ///< Prefetched lines used.
    Counter unused;           ///< Prefetched lines evicted unused.
    Counter streamsAllocated; ///< Stream trackers allocated.
    Counter fdpDowngrades;    ///< FDP throttle-down events.
    Counter fdpUpgrades;      ///< FDP throttle-up events.
    /** @} */

    void regStats(StatGroup *parent);

  private:
    struct Stream
    {
        bool valid = false;
        int confirmations = 0; ///< 0 = allocated, >= 2 = confirmed.
        int direction = 1;     ///< +1 ascending, -1 descending.
        Addr lastDemand = 0;   ///< Line index of last demand access.
        Addr head = 0;         ///< Line index of next prefetch.
        std::uint64_t lruStamp = 0;
    };

    void maybeRethrottle();

    PrefetcherConfig config_;
    int lineBytes_;
    int distance_;
    int degree_;
    std::vector<Stream> streams_;
    std::uint64_t lruCounter_ = 0;
    std::uint64_t intervalIssued_ = 0;
    std::uint64_t intervalUseful_ = 0;
    StatGroup statGroup_;
};

} // namespace rab

#endif // RAB_MEMORY_STREAM_PREFETCHER_HH
