/**
 * @file
 * Host-time helpers for the benchmark: a steady clock, order
 * statistics over small sample sets, and a fixed-size nanosecond
 * histogram for the per-tick samples (millions per pass, so they are
 * bucketed instead of stored).
 */

#ifndef RAB_PERFBENCH_TIMING_HH
#define RAB_PERFBENCH_TIMING_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point from)
{
    return std::chrono::duration<double>(Clock::now() - from).count();
}

/** Nearest-rank percentile @p pct (0..100] of @p values; 0 if empty. */
inline double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(pct / 100.0
                                  * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

inline double
median(const std::vector<double> &values)
{
    return percentile(values, 50);
}

/**
 * The highest of the reported percentile levels that still has at
 * least ten samples beyond it (the tail a sample count can support);
 * 100 (the maximum) when even the median has fewer.
 */
inline double
tailLevel(std::uint64_t samples)
{
    for (const double level : {99.99, 99.9, 99.0, 90.0, 50.0}) {
        if (static_cast<double>(samples) * (1.0 - level / 100.0) >= 10.0)
            return level;
    }
    return 100.0;
}

/** Per-nanosecond buckets up to kBuckets-1 ns; longer ticks land in
 *  the last bucket. */
class NsHistogram
{
  public:
    static constexpr std::size_t kBuckets = 1u << 16;

    void add(std::uint64_t ns)
    {
        if (buckets_.empty())
            buckets_.assign(kBuckets, 0);
        ++buckets_[std::min<std::uint64_t>(ns, kBuckets - 1)];
        ++count_;
    }

    void merge(const NsHistogram &other)
    {
        if (other.buckets_.empty())
            return;
        if (buckets_.empty())
            buckets_.assign(kBuckets, 0);
        for (std::size_t i = 0; i < kBuckets; ++i)
            buckets_[i] += other.buckets_[i];
        count_ += other.count_;
    }

    std::uint64_t count() const { return count_; }

    /** Nearest-rank percentile in ns; 0 when empty. */
    double percentile(double pct) const
    {
        if (count_ == 0)
            return 0;
        const double rank_f =
            std::ceil(pct / 100.0 * static_cast<double>(count_));
        const std::uint64_t rank =
            rank_f < 1 ? 1 : static_cast<std::uint64_t>(rank_f);
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < buckets_.size(); ++i) {
            seen += buckets_[i];
            if (seen >= rank)
                return static_cast<double>(i);
        }
        return static_cast<double>(kBuckets - 1);
    }

  private:
    /** Allocated on the first sample, so untimed passes carry none. */
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
};

} // namespace perfbench

#endif // RAB_PERFBENCH_TIMING_HH
