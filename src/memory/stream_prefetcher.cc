#include "memory/stream_prefetcher.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"

namespace rab
{

StreamPrefetcher::StreamPrefetcher(const PrefetcherConfig &config,
                                   int line_bytes)
    : config_(config), lineBytes_(line_bytes),
      distance_(config.distance), degree_(config.degree),
      statGroup_("prefetcher")
{
    streams_.assign(config_.streams, Stream{});
}

void
StreamPrefetcher::observe(Addr line_addr, bool was_miss,
                          std::vector<Addr> &out)
{
    if (!config_.enabled)
        return;

    const Addr line = line_addr / lineBytes_;

    // 1. Try to match an existing tracker. A stream matches when the
    //    access falls within a small window around its demand pointer in
    //    the stream's direction.
    Stream *match = nullptr;
    for (Stream &s : streams_) {
        if (!s.valid)
            continue;
        const std::int64_t delta = static_cast<std::int64_t>(line)
            - static_cast<std::int64_t>(s.lastDemand);
        const std::int64_t fwd = delta * s.direction;
        if (fwd >= 0 && fwd <= distance_ + 4) {
            match = &s;
            break;
        }
        // Unconfirmed trackers may still discover their direction.
        if (s.confirmations < 2 && std::llabs(delta) <= 4 && delta != 0) {
            s.direction = delta > 0 ? 1 : -1;
            match = &s;
            break;
        }
    }

    if (match) {
        Stream &s = *match;
        s.lruStamp = ++lruCounter_;
        const std::int64_t fwd =
            (static_cast<std::int64_t>(line)
             - static_cast<std::int64_t>(s.lastDemand)) * s.direction;
        if (fwd > 0) {
            if (s.confirmations < 2)
                ++s.confirmations;
            s.lastDemand = line;
        }
        if (s.confirmations >= 2) {
            // Keep the head within [demand+1, demand+distance].
            std::int64_t head_fwd =
                (static_cast<std::int64_t>(s.head)
                 - static_cast<std::int64_t>(s.lastDemand)) * s.direction;
            if (head_fwd < 1) {
                s.head = s.lastDemand + s.direction;
                head_fwd = 1;
            }
            for (int i = 0; i < degree_ && head_fwd <= distance_; ++i) {
                out.push_back(static_cast<Addr>(s.head) * lineBytes_);
                s.head += s.direction;
                ++head_fwd;
                ++issued;
                ++intervalIssued_;
            }
            maybeRethrottle();
        }
        return;
    }

    // 2. No tracker matched: allocate on demand misses only.
    if (!was_miss)
        return;
    Stream *victim = nullptr;
    for (Stream &s : streams_) {
        if (!s.valid) {
            victim = &s;
            break;
        }
        if (!victim || s.lruStamp < victim->lruStamp)
            victim = &s;
    }
    *victim = Stream{};
    victim->valid = true;
    victim->confirmations = 0;
    victim->direction = 1;
    victim->lastDemand = line;
    victim->head = line + 1;
    victim->lruStamp = ++lruCounter_;
    ++streamsAllocated;
}

void
StreamPrefetcher::notifyUseful()
{
    ++useful;
    ++intervalUseful_;
}

void
StreamPrefetcher::notifyUnused()
{
    ++unused;
}

void
StreamPrefetcher::maybeRethrottle()
{
    if (!config_.fdpThrottle
        || intervalIssued_ < static_cast<std::uint64_t>(config_.fdpInterval))
        return;
    const double accuracy = intervalUseful_ == 0 ? 0.0
        : static_cast<double>(intervalUseful_)
            / static_cast<double>(intervalIssued_);
    if (accuracy < config_.fdpLowAccuracy) {
        const int new_distance = std::max(4, distance_ / 2);
        const int new_degree = std::max(1, degree_ - 1);
        if (new_distance != distance_ || new_degree != degree_)
            ++fdpDowngrades;
        distance_ = new_distance;
        degree_ = new_degree;
    } else if (accuracy > config_.fdpHighAccuracy) {
        const int new_distance = std::min(config_.distance, distance_ * 2);
        const int new_degree = std::min(config_.degree, degree_ + 1);
        if (new_distance != distance_ || new_degree != degree_)
            ++fdpUpgrades;
        distance_ = new_distance;
        degree_ = new_degree;
    }
    intervalIssued_ = 0;
    intervalUseful_ = 0;
}

void
StreamPrefetcher::regStats(StatGroup *parent)
{
    statGroup_.addCounter("issued", &issued);
    statGroup_.addCounter("useful", &useful);
    statGroup_.addCounter("unused", &unused);
    statGroup_.addCounter("streams_allocated", &streamsAllocated);
    statGroup_.addCounter("fdp_downgrades", &fdpDowngrades);
    statGroup_.addCounter("fdp_upgrades", &fdpUpgrades);
    if (parent)
        parent->addChild(&statGroup_);
}

} // namespace rab
