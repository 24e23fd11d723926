#include "stats/stats.hh"

#include "common/logging.hh"

namespace rab
{

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
StatGroup::addCounter(const std::string &name, Counter *counter)
{
    entries_.push_back(Entry{name, counter, nullptr});
}

void
StatGroup::addScalar(const std::string &name, const double *value)
{
    entries_.push_back(Entry{name, nullptr, value});
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

bool
StatGroup::countersZero() const
{
    for (const auto &e : entries_) {
        if (e.counter && e.counter->value() != 0)
            return false;
    }
    for (const auto *child : children_) {
        if (!child->countersZero())
            return false;
    }
    return true;
}

} // namespace rab
