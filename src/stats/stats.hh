/**
 * @file
 * Lightweight gem5-flavoured statistics package.
 *
 * Components register named statistics with a StatGroup; groups nest to
 * form a tree that collect() flattens into dotted names (the payload
 * Simulation::statPayload() reports). Two stat kinds cover the
 * simulator's needs:
 *   - Counter: a monotonically increasing event count.
 *   - Scalar:  an arbitrary double read at collect time.
 * A registration is a name and a pointer; the member's own doc comment
 * is its documentation.
 */

#ifndef RAB_STATS_STATS_HH
#define RAB_STATS_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rab
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A named collection of statistics. Values are registered by pointer and
 * read live at collect time, so components keep plain members and
 * register them once in their constructor.
 *
 * Reset-or-fresh semantics: a group is either freshly constructed with
 * its owning component (the normal case — every Simulation builds new
 * components, hence new groups), or explicitly wiped between runs with
 * resetCounters(). There is no implicit carry-over, and a group tree
 * may never be shared between two live Simulations: each Simulation
 * claims its trees via claimExclusive(), which panics on aliasing, so
 * concurrent sweep points can never read or reset each other's
 * counters.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name);
    StatGroup(std::string name, StatGroup *parent);

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return name_; }

    void addCounter(const std::string &name, Counter *counter);
    void addScalar(const std::string &name, const double *value);
    void addChild(StatGroup *child);

    /** Flatten this group's subtree into dotted-name → value pairs. */
    std::map<std::string, double> collect() const;

    /** Look up one stat by dotted path relative to this group. */
    double get(const std::string &dotted_name) const;

    void resetCounters();

    /** True when every counter in this group's subtree reads zero. */
    bool countersZero() const;

    /**
     * Assert exclusive ownership of this subtree for @p owner (one
     * running Simulation). Panics if any group in the subtree is
     * already claimed by a different owner — i.e. the same stat
     * storage was wired into two simulations, which would silently
     * alias counters across concurrent sweep points.
     */
    void claimExclusive(const void *owner);

    /** Release a claimExclusive() claim (no-op for other owners). */
    void releaseExclusive(const void *owner);

    /** The current exclusive owner, or nullptr. */
    const void *exclusiveOwner() const { return owner_; }

  private:
    struct Entry
    {
        std::string name;
        Counter *counter = nullptr;
        const double *scalar = nullptr;
    };

    void collectInto(const std::string &prefix,
                     std::map<std::string, double> &out) const;

    std::string name_;
    std::vector<Entry> entries_;
    std::vector<StatGroup *> children_;
    const void *owner_ = nullptr;
};

} // namespace rab

#endif // RAB_STATS_STATS_HH
