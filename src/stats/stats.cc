#include "stats/stats.hh"

#include <limits>

#include "common/logging.hh"

namespace rab
{

Distribution::Distribution(std::uint64_t low, std::uint64_t high,
                           std::uint64_t bucket_size)
    : low_(low), high_(high), bucketSize_(bucket_size),
      min_(std::numeric_limits<std::uint64_t>::max())
{
    if (high <= low || bucket_size == 0)
        panic("Distribution: bad bucket spec [%lu, %lu) / %lu",
              (unsigned long)low, (unsigned long)high,
              (unsigned long)bucket_size);
    buckets_.assign((high - low + bucket_size - 1) / bucket_size, 0);
}

void
Distribution::sample(std::uint64_t value, std::uint64_t count)
{
    samples_ += count;
    sum_ += value * count;
    if (value < min_)
        min_ = value;
    if (value > max_)
        max_ = value;
    if (value < low_) {
        underflow_ += count;
    } else if (value >= high_) {
        overflow_ += count;
    } else {
        buckets_[(value - low_) / bucketSize_] += count;
    }
}

double
Distribution::mean() const
{
    return samples_ ? static_cast<double>(sum_) / samples_ : 0.0;
}

std::uint64_t
Distribution::bucketCount(std::uint64_t value) const
{
    if (value < low_)
        return underflow_;
    if (value >= high_)
        return overflow_;
    return buckets_[(value - low_) / bucketSize_];
}

void
Distribution::reset()
{
    buckets_.assign(buckets_.size(), 0);
    underflow_ = overflow_ = samples_ = sum_ = max_ = 0;
    min_ = std::numeric_limits<std::uint64_t>::max();
}

StatGroup::StatGroup(std::string name)
    : name_(std::move(name))
{
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name))
{
    if (parent)
        parent->addChild(this);
}

void
StatGroup::addCounter(const std::string &name, Counter *counter,
                      const std::string &desc)
{
    entries_.push_back(Entry{name, counter, nullptr, desc});
}

void
StatGroup::addScalar(const std::string &name, const double *value,
                     const std::string &desc)
{
    entries_.push_back(Entry{name, nullptr, value, desc});
}

void
StatGroup::addChild(StatGroup *child)
{
    children_.push_back(child);
}

void
StatGroup::collectInto(const std::string &prefix,
                       std::map<std::string, double> &out) const
{
    const std::string base = prefix.empty() ? name_ : prefix + "." + name_;
    for (const auto &e : entries_) {
        const double v = e.counter
            ? static_cast<double>(e.counter->value()) : *e.scalar;
        out[base + "." + e.name] = v;
    }
    for (const auto *child : children_)
        child->collectInto(base, out);
}

std::map<std::string, double>
StatGroup::collect() const
{
    std::map<std::string, double> out;
    collectInto("", out);
    return out;
}

double
StatGroup::get(const std::string &dotted_name) const
{
    const auto all = collect();
    const auto it = all.find(name_ + "." + dotted_name);
    if (it == all.end())
        panic("StatGroup::get: unknown stat '%s'", dotted_name.c_str());
    return it->second;
}

void
StatGroup::claimExclusive(const void *owner)
{
    if (owner_ && owner_ != owner) {
        panic("StatGroup '%s' is already claimed by another "
              "simulation: stat storage may not be shared between "
              "live runs",
              name_.c_str());
    }
    owner_ = owner;
    for (auto *child : children_)
        child->claimExclusive(owner);
}

void
StatGroup::releaseExclusive(const void *owner)
{
    if (owner_ == owner)
        owner_ = nullptr;
    for (auto *child : children_)
        child->releaseExclusive(owner);
}

void
StatGroup::resetCounters()
{
    for (auto &e : entries_) {
        if (e.counter)
            e.counter->reset();
    }
    for (auto *child : children_)
        child->resetCounters();
}

} // namespace rab
