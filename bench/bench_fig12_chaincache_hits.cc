/**
 * @file
 * Figure 12: chain cache hit rate on the Runahead Buffer + Chain Cache
 * system. Paper shape: generally high; the workloads that benefit most
 * from the chain cache hit well above 95%.
 */

#include "bench_common.hh"

using namespace rab;
using namespace rab::bench;

int
main()
{
    setVerbose(false);
    const BenchOptions options = BenchOptions::fromEnv(40'000, 10'000);
    banner("Figure 12", "chain cache hit rate", options);

    const std::vector<WorkloadSpec> workloads =
        selectWorkloads(mediumHighSuite(), options.workloadFilter);
    const CellRunner runner(options, workloads,
                            {{RunaheadConfig::kRunaheadBufferCC, false}});
    TextTable table({"workload", "hit rate"});
    double sum = 0;
    int count = 0;
    for (const WorkloadSpec &spec : workloads) {
        const SimResult &r =
            runner.get(spec, RunaheadConfig::kRunaheadBufferCC, false);
        table.addRow({spec.params.name, pct(r.chainCacheHitRate)});
        sum += r.chainCacheHitRate;
        ++count;
    }
    table.print();
    std::printf("\naverage hit rate: %s (paper: high, mostly > 90%%)\n",
                pct(count ? sum / count : 0).c_str());
    return 0;
}
