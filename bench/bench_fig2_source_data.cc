/**
 * @file
 * Figure 2: percent of all cache misses whose source data (everything
 * needed to compute the miss address) is available on chip. These are
 * the misses runahead can target. Paper shape: the large majority of
 * misses qualify for most workloads; dependent-miss workloads (pointer
 * chases) are the exception.
 */

#include "bench_common.hh"

using namespace rab;
using namespace rab::bench;

int
main()
{
    setVerbose(false);
    const BenchOptions options = BenchOptions::fromEnv(40'000, 10'000);
    banner("Figure 2", "misses with source data available on chip",
           options);

    const std::vector<WorkloadSpec> workloads =
        selectWorkloads(spec06Suite(), options.workloadFilter);
    const CellRunner runner(options, workloads,
                            {{RunaheadConfig::kBaseline, false}});
    TextTable table({"workload", "class", "on-chip sources"});
    std::vector<double> fractions;
    for (const WorkloadSpec &spec : workloads) {
        const SimResult &r =
            runner.get(spec, RunaheadConfig::kBaseline, false);
        table.addRow({spec.params.name, intensityName(spec.intensity),
                      pct(r.fig2OnChipFraction)});
        if (r.mpki > 2.0)
            fractions.push_back(r.fig2OnChipFraction);
    }
    table.print();
    double sum = 0;
    for (const double f : fractions)
        sum += f;
    std::printf("\nmean over medium+high intensity: %s (paper: most "
                "source data is available on chip)\n",
                pct(fractions.empty() ? 0 : sum / fractions.size())
                    .c_str());
    return 0;
}
