// rablint fixture: every line marked EXPECT must be flagged by the
// named check.
#include <string>

struct Counter
{
};

struct StatGroup
{
    void addCounter(const std::string &name, Counter *counter);
    void addScalar(const std::string &name, const double *value);
};

std::string perCoreStatName(int core, const std::string &name);

void
registerStats(StatGroup &stats, Counter &a, Counter &b,
              const std::string &dynamic_name, const double *value)
{
    stats.addCounter("hits", &a);
    stats.addCounter("hits", &b);                 // EXPECT: rab-stat-registration
    stats.addCounter(dynamic_name, &a);           // EXPECT: rab-stat-registration
    stats.addScalar("ipc", value);
    stats.addScalar("ipc" + dynamic_name, value); // EXPECT: rab-stat-registration

    // Per-core indexed names: the same perCoreStatName spelling twice
    // on one group registers the same name twice — a duplicate...
    stats.addCounter(perCoreStatName(0, "mshr_peak"), &a);
    stats.addCounter(perCoreStatName(0, "mshr_peak"), &b); // EXPECT: rab-stat-registration
    // ...and a per-core name with no literal inside is still dynamic.
    stats.addCounter(perCoreStatName(2, dynamic_name), &a); // EXPECT: rab-stat-registration
}
