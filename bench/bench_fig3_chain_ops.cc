/**
 * @file
 * Figure 3: of all the operations executed during traditional runahead,
 * the fraction that belongs to a dependence chain that generates a
 * cache miss ("necessary" ops). Paper shape: for most workloads a
 * minority of runahead-executed ops are necessary (mcf ~36%); omnetpp
 * is the outlier where nearly everything is on a chain.
 */

#include "bench_common.hh"

using namespace rab;
using namespace rab::bench;

int
main()
{
    setVerbose(false);
    const BenchOptions options = BenchOptions::fromEnv(40'000, 10'000);
    banner("Figure 3", "runahead ops on miss dependence chains", options);

    const std::vector<WorkloadSpec> workloads =
        selectWorkloads(spec06Suite(), options.workloadFilter);
    const CellRunner runner(options, workloads,
                            {{RunaheadConfig::kRunahead, false}});
    TextTable table({"workload", "class", "dependence chain",
                     "other ops"});
    for (const WorkloadSpec &spec : workloads) {
        const SimResult &r =
            runner.get(spec, RunaheadConfig::kRunahead, false);
        table.addRow({spec.params.name, intensityName(spec.intensity),
                      pct(r.necessaryFraction),
                      pct(std::max(0.0, 1.0 - r.necessaryFraction))});
    }
    table.print();
    std::printf("\npaper: most runahead-executed ops are NOT needed to "
                "generate misses\n(mcf: only ~36%% necessary; omnetpp: "
                "~100%% necessary).\n");
    return 0;
}
