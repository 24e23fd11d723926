/**
 * @file
 * Figure 13: of all chain cache hits, the percentage whose stored chain
 * exactly matches the chain that would have been generated from the
 * ROB at that moment. Paper average: 53%; hits need not be exact —
 * runahead is a prefetching heuristic, so a stale chain is usually
 * still worth using. sphinx (variable chains) scores low.
 */

#include "bench_common.hh"

using namespace rab;
using namespace rab::bench;

int
main()
{
    setVerbose(false);
    const BenchOptions options = BenchOptions::fromEnv(40'000, 10'000);
    banner("Figure 13", "chain cache hits matching the ROB chain",
           options);

    const std::vector<WorkloadSpec> workloads =
        selectWorkloads(mediumHighSuite(), options.workloadFilter);
    const CellRunner runner(options, workloads,
                            {{RunaheadConfig::kRunaheadBufferCC, false}});
    TextTable table({"workload", "exact-match hits"});
    double sum = 0;
    int count = 0;
    for (const WorkloadSpec &spec : workloads) {
        const SimResult &r =
            runner.get(spec, RunaheadConfig::kRunaheadBufferCC, false);
        table.addRow({spec.params.name, pct(r.chainCacheExactRate)});
        sum += r.chainCacheExactRate;
        ++count;
    }
    table.print();
    std::printf("\naverage exact-match rate: %s (paper: 53%%)\n",
                pct(count ? sum / count : 0).c_str());
    return 0;
}
