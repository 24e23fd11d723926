// rablint fixture: nothing in this file may be flagged.
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
registerStats(StatGroup &core, StatGroup &memory, Counter &a, Counter &b,
              const double *value)
{
    core.addCounter("hits", &a);
    core.addCounter("misses", &b);
    core.addScalar("ipc", value);

    // The same name on a *different* group is fine.
    memory.addCounter("hits", &a);

    // Adjacent string literals still form one literal name.
    memory.addCounter("dram_"
                      "reads",
                      &b);

    // Per-core indexed registration loops: perCoreStatName() names
    // are "core<N>.<literal>" — per-core unique by construction, so
    // the literal-name rule accepts them without suppression.
    for (int i = 0; i < 4; ++i)
        memory.addCounter(perCoreStatName(i, "mshr_peak"), &a);
    // Distinct constant indices are distinct names, not duplicates.
    memory.addCounter(perCoreStatName(0, "held_now"), &a);
    memory.addCounter(perCoreStatName(1, "held_now"), &b);
}
