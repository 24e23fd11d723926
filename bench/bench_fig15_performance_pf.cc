/**
 * @file
 * Figure 15: performance with the Table 1 stream prefetcher enabled,
 * normalised to the *no-prefetching* baseline, over the medium+high
 * intensity workloads. Paper GMeans: PF +37.5%, Runahead+PF +48.3%,
 * RA-Buffer+PF +47.1%, RAB+CC+PF +48.2%, Hybrid+PF +51.5%.
 */

#include "bench_common.hh"

using namespace rab;
using namespace rab::bench;

int
main()
{
    setVerbose(false);
    const BenchOptions options = BenchOptions::fromEnv(40'000, 10'000);
    banner("Figure 15", "IPC with stream prefetching vs no-PF baseline",
           options);

    static const RunaheadConfig kConfigs[] = {
        RunaheadConfig::kBaseline,
        RunaheadConfig::kRunahead,
        RunaheadConfig::kRunaheadBuffer,
        RunaheadConfig::kRunaheadBufferCC,
        RunaheadConfig::kHybrid,
    };
    static const char *kNames[] = {"PF", "Runahead+PF", "RA-Buffer+PF",
                                   "RAB+CC+PF", "Hybrid+PF"};
    static const double kPaper[] = {37.5, 48.3, 47.1, 48.2, 51.5};

    const std::vector<WorkloadSpec> workloads =
        selectWorkloads(mediumHighSuite(), options.workloadFilter);
    std::vector<CellVariant> grid{{RunaheadConfig::kBaseline, false}};
    for (const RunaheadConfig config : kConfigs)
        grid.emplace_back(config, true);
    const CellRunner runner(options, workloads, grid);
    TextTable table({"workload", "PF", "Runahead+PF", "RA-Buffer+PF",
                     "RAB+CC+PF", "Hybrid+PF"});
    std::map<int, std::vector<double>> speedups;
    for (const WorkloadSpec &spec : workloads) {
        const SimResult &base =
            runner.get(spec, RunaheadConfig::kBaseline, false);
        std::vector<std::string> row{spec.params.name};
        for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
            const SimResult &r = runner.get(spec, kConfigs[i], true);
            const double ratio = r.ipc / base.ipc;
            row.push_back(pctDiff(ratio));
            speedups[static_cast<int>(i)].push_back(ratio - 1.0);
        }
        table.addRow(row);
    }
    table.print();

    std::printf("\nGMean speedup over medium+high intensity (vs no-PF "
                "baseline):\n");
    for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
        std::printf("  %-14s measured %+6.1f%%   (paper %+.1f%%)\n",
                    kNames[i],
                    100.0 * geomeanSpeedup(speedups[static_cast<int>(i)]),
                    kPaper[i]);
    }
    return 0;
}
