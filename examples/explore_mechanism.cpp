/**
 * @file
 * Look inside the runahead buffer mechanism on one workload: runs every
 * configuration and prints the microarchitectural story — stall
 * breakdown, runahead intervals, generated MLP, chain cache behaviour,
 * front-end gating, DRAM traffic and energy.
 *
 *   ./build/examples/explore_mechanism [workload] [instructions]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "core/simulation.hh"
#include "workloads/suite.hh"

using namespace rab;

namespace
{

void
report(const char *label, Simulation &sim, const SimResult &r,
       const SimResult &base)
{
    Core &core = sim.core();
    std::printf("--- %s ---\n", label);
    std::printf("  IPC %.3f (%+.1f%% vs baseline), %llu cycles\n", r.ipc,
                100.0 * (r.ipc / base.ipc - 1.0),
                (unsigned long long)r.cycles);
    std::printf("  memory stall %.1f%% of cycles, MPKI %.1f\n",
                r.memStallFraction * 100.0, r.mpki);
    if (r.runaheadIntervals > 0) {
        RunaheadController &ra = core.runahead();
        std::printf("  runahead: %llu intervals, %.2f new misses each, "
                    "%.1f%% of cycles in buffer mode\n",
                    (unsigned long long)r.runaheadIntervals,
                    r.missesPerInterval, r.bufferCycleFraction * 100.0);
        std::printf("  chains: %llu generated (%llu ops), %llu cache "
                    "hits (%.0f%% exact), %llu no-PC-match\n",
                    (unsigned long long)
                        ra.chainGenerator().generatedChains.value(),
                    (unsigned long long)
                        ra.chainGenerator().generatedOps.value(),
                    (unsigned long long)ra.chainCache().hits.value(),
                    r.chainCacheExactRate * 100.0,
                    (unsigned long long)
                        ra.chainGenerator().noPcMatch.value());
        std::printf("  front-end: %llu uops fetched, %llu cycles "
                    "clock-gated\n",
                    (unsigned long long)
                        core.frontend().fetchedUops.value(),
                    (unsigned long long)
                        core.frontend().gatedCycles.value());
    }
    std::printf("  DRAM requests %llu (%+.1f%% vs baseline)\n",
                (unsigned long long)r.dramRequests,
                100.0 * (static_cast<double>(r.dramRequests)
                             / static_cast<double>(base.dramRequests)
                         - 1.0));
    std::printf("  energy %.2f uJ (%+.1f%% vs baseline): %s\n\n",
                r.energy.totalJ * 1e6,
                100.0 * (r.energy.totalJ / base.energy.totalJ - 1.0),
                r.energy.toString().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const std::string workload = argc > 1 ? argv[1] : "milc";
    const std::uint64_t instructions =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 60'000;
    if (!findWorkload(workload)) {
        std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
        return 1;
    }

    std::printf("workload %s, %llu instructions\n\n", workload.c_str(),
                (unsigned long long)instructions);

    SimResult base;
    {
        SimConfig config = makeConfig(RunaheadConfig::kBaseline, false);
        config.instructions = instructions;
        config.warmupInstructions = instructions / 4;
        Simulation sim(config, buildSuiteWorkload(workload));
        base = sim.run();
        report("Baseline (no prefetching)", sim, base, base);
    }
    for (const RunaheadConfig rc :
         {RunaheadConfig::kRunahead, RunaheadConfig::kRunaheadEnhanced,
          RunaheadConfig::kRunaheadBuffer,
          RunaheadConfig::kRunaheadBufferCC, RunaheadConfig::kHybrid}) {
        SimConfig config = makeConfig(rc, false);
        config.instructions = instructions;
        config.warmupInstructions = instructions / 4;
        Simulation sim(config, buildSuiteWorkload(workload));
        const SimResult r = sim.run();
        report(runaheadConfigName(rc), sim, r, base);
    }
    return 0;
}
