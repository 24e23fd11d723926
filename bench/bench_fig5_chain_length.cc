/**
 * @file
 * Figure 5: average length (in uops) of the dependence chains leading
 * to cache misses during traditional runahead. Paper shape: with the
 * exception of omnetpp, every memory-intensive workload averages under
 * 32 uops — which sizes the runahead buffer (32 uops).
 */

#include "bench_common.hh"

using namespace rab;
using namespace rab::bench;

int
main()
{
    setVerbose(false);
    const BenchOptions options = BenchOptions::fromEnv(40'000, 10'000);
    banner("Figure 5", "average miss dependence chain length (uops)",
           options);

    const std::vector<WorkloadSpec> workloads =
        selectWorkloads(spec06Suite(), options.workloadFilter);
    const CellRunner runner(options, workloads,
                            {{RunaheadConfig::kRunahead, false}});
    TextTable table({"workload", "class", "avg chain length",
                     "< 32 uops"});
    std::vector<double> lengths;
    for (const WorkloadSpec &spec : workloads) {
        const SimResult &r =
            runner.get(spec, RunaheadConfig::kRunahead, false);
        table.addRow({spec.params.name, intensityName(spec.intensity),
                      num(r.avgChainLength, "%.1f"),
                      r.avgChainLength > 0 && r.avgChainLength < 32
                          ? "yes"
                          : (r.avgChainLength == 0 ? "-" : "NO")});
        if (spec.intensity != MemIntensity::kLow && r.avgChainLength > 0)
            lengths.push_back(r.avgChainLength);
    }
    table.print();
    double sum = 0;
    for (const double l : lengths)
        sum += l;
    std::printf("\nmean chain length (medium+high): %.1f uops (paper: "
                "short, < 32 except omnetpp)\n",
                lengths.empty() ? 0 : sum / lengths.size());
    return 0;
}
