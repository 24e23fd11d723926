/**
 * @file
 * Design-space ablations for the mechanism's two sizing decisions:
 *  - runahead buffer capacity (the paper chose 32 uops "through
 *    sensitivity analysis", based on Figure 5's chain lengths), and
 *  - chain cache entries (the paper argues it must stay *small* so
 *    stale chains age out).
 *
 *   ./build/examples/design_sweep [workload]
 */

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "core/simulation.hh"
#include "workloads/suite.hh"

using namespace rab;

namespace
{

double
run(const std::string &workload, int buffer_entries, int cc_entries)
{
    SimConfig config = makeConfig(RunaheadConfig::kRunaheadBufferCC,
                                  false);
    config.core.runahead.chainGen.maxChainLength = buffer_entries;
    config.core.runahead.chainCacheEntries = cc_entries;
    config.instructions = 40'000;
    config.warmupInstructions = 10'000;
    Simulation sim(config, buildSuiteWorkload(workload));
    return sim.run().ipc;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const std::string workload = argc > 1 ? argv[1] : "mcf";
    if (!findWorkload(workload)) {
        std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
        return 1;
    }

    SimConfig base_cfg = makeConfig(RunaheadConfig::kBaseline, false);
    base_cfg.instructions = 40'000;
    base_cfg.warmupInstructions = 10'000;
    Simulation base_sim(base_cfg, buildSuiteWorkload(workload));
    const double base = base_sim.run().ipc;
    std::printf("workload %s, baseline IPC %.3f\n\n", workload.c_str(),
                base);

    std::puts("runahead buffer capacity sweep (chain cache = 2):");
    for (const int entries : {8, 16, 24, 32, 48, 64}) {
        std::printf("  %2d uops: %+6.1f%%%s\n", entries,
                    100.0 * (run(workload, entries, 2) / base - 1.0),
                    entries == 32 ? "   <- Table 1" : "");
    }

    std::puts("\nchain cache entries sweep (buffer = 32):");
    for (const int entries : {1, 2, 4, 8, 16}) {
        std::printf("  %2d entries: %+6.1f%%%s\n", entries,
                    100.0 * (run(workload, 32, entries) / base - 1.0),
                    entries == 2 ? "   <- Table 1" : "");
    }
    return 0;
}
