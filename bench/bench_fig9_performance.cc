/**
 * @file
 * Figure 9: performance of the four runahead configurations, normalised
 * to the no-prefetching baseline. Paper GMeans over the medium+high
 * intensity workloads: Runahead +14.3%, Runahead Buffer +14.4%,
 * Runahead Buffer + Chain Cache +17.2%, Hybrid +21.0%; the low
 * intensity group moves ~0.8%.
 */

#include "bench_common.hh"

using namespace rab;
using namespace rab::bench;

int
main()
{
    setVerbose(false);
    const BenchOptions options = BenchOptions::fromEnv(40'000, 10'000);
    banner("Figure 9", "IPC vs no-prefetching baseline", options);

    static const RunaheadConfig kConfigs[] = {
        RunaheadConfig::kRunahead,
        RunaheadConfig::kRunaheadBuffer,
        RunaheadConfig::kRunaheadBufferCC,
        RunaheadConfig::kHybrid,
    };

    const std::vector<WorkloadSpec> workloads =
        selectWorkloads(spec06Suite(), options.workloadFilter);
    const CellRunner runner(options, workloads,
                            {{RunaheadConfig::kBaseline, false},
                             {RunaheadConfig::kRunahead, false},
                             {RunaheadConfig::kRunaheadBuffer, false},
                             {RunaheadConfig::kRunaheadBufferCC, false},
                             {RunaheadConfig::kHybrid, false}});
    TextTable table({"workload", "class", "Runahead", "RA-Buffer",
                     "RAB+CC", "Hybrid"});
    std::map<RunaheadConfig, std::vector<double>> speedups;
    for (const WorkloadSpec &spec : workloads) {
        const SimResult &base =
            runner.get(spec, RunaheadConfig::kBaseline, false);
        std::vector<std::string> row{spec.params.name,
                                     intensityName(spec.intensity)};
        for (const RunaheadConfig config : kConfigs) {
            const SimResult &r = runner.get(spec, config, false);
            const double ratio = r.ipc / base.ipc;
            row.push_back(pctDiff(ratio));
            if (spec.intensity != MemIntensity::kLow)
                speedups[config].push_back(ratio - 1.0);
        }
        table.addRow(row);
    }
    table.print();

    static const double kPaper[] = {14.3, 14.4, 17.2, 21.0};
    std::printf("\nGMean speedup over medium+high intensity:\n");
    for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
        std::printf("  %-18s measured %+6.1f%%   (paper %+.1f%%)\n",
                    runaheadConfigName(kConfigs[i]),
                    100.0 * geomeanSpeedup(speedups[kConfigs[i]]),
                    kPaper[i]);
    }
    return 0;
}
