/**
 * @file
 * Figure 14: under the hybrid policy, the percentage of runahead cycles
 * spent using the runahead buffer (the remainder uses traditional
 * runahead). Paper average: 71% buffer; omnetpp and sphinx spend a
 * large fraction in traditional mode.
 */

#include "bench_common.hh"

using namespace rab;
using namespace rab::bench;

int
main()
{
    setVerbose(false);
    const BenchOptions options = BenchOptions::fromEnv(40'000, 10'000);
    banner("Figure 14", "hybrid policy: buffer share of runahead cycles",
           options);

    const std::vector<WorkloadSpec> workloads =
        selectWorkloads(mediumHighSuite(), options.workloadFilter);
    const CellRunner runner(options, workloads,
                            {{RunaheadConfig::kHybrid, false}});
    TextTable table({"workload", "buffer share"});
    double sum = 0;
    int count = 0;
    for (const WorkloadSpec &spec : workloads) {
        const SimResult &r =
            runner.get(spec, RunaheadConfig::kHybrid, false);
        table.addRow({spec.params.name, pct(r.hybridBufferFraction)});
        sum += r.hybridBufferFraction;
        ++count;
    }
    table.print();
    std::printf("\naverage buffer share: %s (paper: 71%%; omnetpp and "
                "sphinx lean on traditional runahead)\n",
                pct(count ? sum / count : 0).c_str());
    return 0;
}
