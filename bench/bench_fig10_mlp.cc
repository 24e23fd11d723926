/**
 * @file
 * Figure 10: average number of cache misses generated per runahead
 * interval (the MLP each mechanism uncovers), with and without the
 * stream prefetcher. Paper shape: the runahead buffer generates over
 * 2x the misses of traditional runahead on average; prefetching
 * reduces runahead-generated MLP (~27% for traditional, ~36% for the
 * buffer) but the buffer still leads by ~80%.
 */

#include "bench_common.hh"

using namespace rab;
using namespace rab::bench;

int
main()
{
    setVerbose(false);
    const BenchOptions options = BenchOptions::fromEnv(40'000, 10'000);
    banner("Figure 10", "cache misses per runahead interval", options);

    const std::vector<WorkloadSpec> workloads =
        selectWorkloads(mediumHighSuite(), options.workloadFilter);
    const CellRunner runner(options, workloads,
                            {{RunaheadConfig::kRunahead, false},
                             {RunaheadConfig::kRunaheadBufferCC, false},
                             {RunaheadConfig::kRunahead, true},
                             {RunaheadConfig::kRunaheadBufferCC, true}});
    TextTable table({"workload", "Runahead", "RA-Buffer", "Runahead+PF",
                     "RA-Buffer+PF"});
    double sums[4] = {};
    int count = 0;
    for (const WorkloadSpec &spec : workloads) {
        const double ra =
            runner.get(spec, RunaheadConfig::kRunahead, false)
                .missesPerInterval;
        const double rb =
            runner.get(spec, RunaheadConfig::kRunaheadBufferCC, false)
                .missesPerInterval;
        const double ra_pf =
            runner.get(spec, RunaheadConfig::kRunahead, true)
                .missesPerInterval;
        const double rb_pf =
            runner.get(spec, RunaheadConfig::kRunaheadBufferCC, true)
                .missesPerInterval;
        table.addRow({spec.params.name, num(ra), num(rb), num(ra_pf),
                      num(rb_pf)});
        sums[0] += ra;
        sums[1] += rb;
        sums[2] += ra_pf;
        sums[3] += rb_pf;
        ++count;
    }
    table.print();
    if (count) {
        std::printf("\naverages: RA %.2f, RAB %.2f (%.2fx, paper ~2x); "
                    "RA+PF %.2f, RAB+PF %.2f (%.2fx, paper ~1.8x)\n",
                    sums[0] / count, sums[1] / count,
                    sums[0] > 0 ? sums[1] / sums[0] : 0,
                    sums[2] / count, sums[3] / count,
                    sums[2] > 0 ? sums[3] / sums[2] : 0);
    }
    return 0;
}
