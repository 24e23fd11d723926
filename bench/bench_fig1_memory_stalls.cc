/**
 * @file
 * Figure 1: percent of total core cycles stalled waiting for memory on
 * the no-prefetching baseline, across the suite (sorted by memory
 * intensity), with each workload's IPC. Paper shape: every medium/high
 * intensity application stalls for over half of its cycles and mostly
 * runs at IPC < 1.
 */

#include "bench_common.hh"

using namespace rab;
using namespace rab::bench;

int
main()
{
    setVerbose(false);
    const BenchOptions options = BenchOptions::fromEnv(40'000, 10'000);
    banner("Figure 1", "cycles stalled waiting for memory (baseline)",
           options);

    const std::vector<WorkloadSpec> workloads =
        selectWorkloads(spec06Suite(), options.workloadFilter);
    const CellRunner runner(options, workloads,
                            {{RunaheadConfig::kBaseline, false}});
    TextTable table({"workload", "class", "stall %", "IPC", "MPKI"});
    double high_stall_min = 1.0;
    for (const WorkloadSpec &spec : workloads) {
        const SimResult &r =
            runner.get(spec, RunaheadConfig::kBaseline, false);
        if (spec.intensity == MemIntensity::kHigh)
            high_stall_min = std::min(high_stall_min, r.memStallFraction);
        table.addRow({spec.params.name, intensityName(spec.intensity),
                      pct(r.memStallFraction), num(r.ipc), num(r.mpki)});
    }
    table.print();
    std::printf("\npaper: all high-intensity workloads stall > 50%% of "
                "cycles.\nmeasured minimum high-intensity stall: %s\n",
                pct(high_stall_min).c_str());
    return 0;
}
