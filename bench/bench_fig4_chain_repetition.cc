/**
 * @file
 * Figure 4: of the dependence chains leading to cache misses within a
 * runahead interval, the fraction that repeats a chain already seen in
 * the same interval. Paper shape: chains are overwhelmingly repeated
 * for the memory-intensive workloads, which is what makes caching and
 * looping a single filtered chain (the runahead buffer) work.
 */

#include "bench_common.hh"

using namespace rab;
using namespace rab::bench;

int
main()
{
    setVerbose(false);
    const BenchOptions options = BenchOptions::fromEnv(40'000, 10'000);
    banner("Figure 4", "repeated vs unique miss dependence chains",
           options);

    const std::vector<WorkloadSpec> workloads =
        selectWorkloads(spec06Suite(), options.workloadFilter);
    const CellRunner runner(options, workloads,
                            {{RunaheadConfig::kRunahead, false}});
    TextTable table({"workload", "class", "repeated", "unique"});
    std::vector<double> repeated;
    for (const WorkloadSpec &spec : workloads) {
        const SimResult &r =
            runner.get(spec, RunaheadConfig::kRunahead, false);
        table.addRow({spec.params.name, intensityName(spec.intensity),
                      pct(r.repeatedFraction),
                      pct(std::max(0.0, 1.0 - r.repeatedFraction))});
        if (spec.intensity != MemIntensity::kLow)
            repeated.push_back(r.repeatedFraction);
    }
    table.print();
    double sum = 0;
    for (const double f : repeated)
        sum += f;
    std::printf("\nmean repeated fraction (medium+high): %s "
                "(paper: most chains repeat within an interval)\n",
                pct(repeated.empty() ? 0 : sum / repeated.size()).c_str());
    return 0;
}
