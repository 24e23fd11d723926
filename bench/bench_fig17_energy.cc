/**
 * @file
 * Figure 17: normalised system (chip + DRAM) energy without
 * prefetching. Paper GMeans vs the no-PF baseline: Runahead +44.0%
 * (the front-end never rests), Runahead-Enhanced +9.0%, RA-Buffer
 * -4.4%, RAB+CC -6.7%, Hybrid -2.3%.
 */

#include "bench_common.hh"

using namespace rab;
using namespace rab::bench;

int
main()
{
    setVerbose(false);
    const BenchOptions options = BenchOptions::fromEnv(40'000, 10'000);
    banner("Figure 17", "energy vs no-PF baseline", options);

    static const RunaheadConfig kConfigs[] = {
        RunaheadConfig::kRunahead,
        RunaheadConfig::kRunaheadEnhanced,
        RunaheadConfig::kRunaheadBuffer,
        RunaheadConfig::kRunaheadBufferCC,
        RunaheadConfig::kHybrid,
    };
    static const double kPaper[] = {44.0, 9.0, -4.4, -6.7, -2.3};

    const std::vector<WorkloadSpec> workloads =
        selectWorkloads(mediumHighSuite(), options.workloadFilter);
    std::vector<CellVariant> grid{{RunaheadConfig::kBaseline, false}};
    for (const RunaheadConfig config : kConfigs)
        grid.emplace_back(config, false);
    const CellRunner runner(options, workloads, grid);
    TextTable table({"workload", "Runahead", "RA-Enhanced", "RA-Buffer",
                     "RAB+CC", "Hybrid"});
    std::map<int, std::vector<double>> ratios;
    for (const WorkloadSpec &spec : workloads) {
        const SimResult &base =
            runner.get(spec, RunaheadConfig::kBaseline, false);
        std::vector<std::string> row{spec.params.name};
        for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
            const SimResult &r = runner.get(spec, kConfigs[i], false);
            const double ratio = r.energy.totalJ / base.energy.totalJ;
            row.push_back(pctDiff(ratio));
            ratios[static_cast<int>(i)].push_back(ratio - 1.0);
        }
        table.addRow(row);
    }
    table.print();

    std::printf("\nGMean energy difference (medium+high):\n");
    for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
        std::printf("  %-18s measured %+6.1f%%   (paper %+.1f%%)\n",
                    runaheadConfigName(kConfigs[i]),
                    100.0 * geomeanSpeedup(ratios[static_cast<int>(i)]),
                    kPaper[i]);
    }
    return 0;
}
