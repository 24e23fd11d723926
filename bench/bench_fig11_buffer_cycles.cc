/**
 * @file
 * Figure 11: percent of total execution cycles spent in runahead buffer
 * mode (cycles during which the front-end is clock-gated) on the
 * Runahead Buffer + Chain Cache system. Paper average: 47%.
 */

#include "bench_common.hh"

using namespace rab;
using namespace rab::bench;

int
main()
{
    setVerbose(false);
    const BenchOptions options = BenchOptions::fromEnv(40'000, 10'000);
    banner("Figure 11", "cycles in runahead buffer mode", options);

    const std::vector<WorkloadSpec> workloads =
        selectWorkloads(mediumHighSuite(), options.workloadFilter);
    const CellRunner runner(options, workloads,
                            {{RunaheadConfig::kRunaheadBufferCC, false}});
    TextTable table({"workload", "buffer-mode cycles"});
    double sum = 0;
    int count = 0;
    for (const WorkloadSpec &spec : workloads) {
        const SimResult &r =
            runner.get(spec, RunaheadConfig::kRunaheadBufferCC, false);
        table.addRow({spec.params.name, pct(r.bufferCycleFraction)});
        sum += r.bufferCycleFraction;
        ++count;
    }
    table.print();
    std::printf("\naverage: %s (paper: 47%% of cycles, front-end "
                "clock-gated throughout)\n",
                pct(count ? sum / count : 0).c_str());
    return 0;
}
