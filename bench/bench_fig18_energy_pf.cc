/**
 * @file
 * Figure 18: normalised system energy with the stream prefetcher,
 * against the *no-prefetching* baseline. Paper GMeans: PF -19.5%,
 * Runahead+PF -1.7%, RA-Enhanced+PF -15.4%, RA-Buffer+PF -20.8%,
 * RAB+CC+PF -22.5%, Hybrid+PF -19.9%.
 */

#include "bench_common.hh"

using namespace rab;
using namespace rab::bench;

int
main()
{
    setVerbose(false);
    const BenchOptions options = BenchOptions::fromEnv(40'000, 10'000);
    banner("Figure 18", "energy with prefetching vs no-PF baseline",
           options);

    static const RunaheadConfig kConfigs[] = {
        RunaheadConfig::kBaseline,
        RunaheadConfig::kRunahead,
        RunaheadConfig::kRunaheadEnhanced,
        RunaheadConfig::kRunaheadBuffer,
        RunaheadConfig::kRunaheadBufferCC,
        RunaheadConfig::kHybrid,
    };
    static const char *kNames[] = {"PF", "Runahead+PF",
                                   "RA-Enhanced+PF", "RA-Buffer+PF",
                                   "RAB+CC+PF", "Hybrid+PF"};
    static const double kPaper[] = {-19.5, -1.7, -15.4, -20.8, -22.5,
                                    -19.9};

    const std::vector<WorkloadSpec> workloads =
        selectWorkloads(mediumHighSuite(), options.workloadFilter);
    std::vector<CellVariant> grid{{RunaheadConfig::kBaseline, false}};
    for (const RunaheadConfig config : kConfigs)
        grid.emplace_back(config, true);
    const CellRunner runner(options, workloads, grid);
    TextTable table({"workload", "PF", "Runahead+PF", "RA-Enhanced+PF",
                     "RA-Buffer+PF", "RAB+CC+PF", "Hybrid+PF"});
    std::map<int, std::vector<double>> ratios;
    for (const WorkloadSpec &spec : workloads) {
        const SimResult &base =
            runner.get(spec, RunaheadConfig::kBaseline, false);
        std::vector<std::string> row{spec.params.name};
        for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
            const SimResult &r = runner.get(spec, kConfigs[i], true);
            const double ratio = r.energy.totalJ / base.energy.totalJ;
            row.push_back(pctDiff(ratio));
            ratios[static_cast<int>(i)].push_back(ratio - 1.0);
        }
        table.addRow(row);
    }
    table.print();

    std::printf("\nGMean energy difference (medium+high, vs no-PF "
                "baseline):\n");
    for (std::size_t i = 0; i < std::size(kConfigs); ++i) {
        std::printf("  %-16s measured %+6.1f%%   (paper %+.1f%%)\n",
                    kNames[i],
                    100.0 * geomeanSpeedup(ratios[static_cast<int>(i)]),
                    kPaper[i]);
    }
    return 0;
}
