/**
 * @file
 * Table 2: SPEC06 workload classification by memory intensity.
 * High: MPKI >= 10; Medium: MPKI > 2; Low: MPKI <= 2 — measured on the
 * no-prefetching baseline.
 */

#include "bench_common.hh"

using namespace rab;
using namespace rab::bench;

int
main()
{
    setVerbose(false);
    const BenchOptions options = BenchOptions::fromEnv(40'000, 10'000);
    banner("Table 2", "workload classification by memory intensity",
           options);

    const std::vector<WorkloadSpec> workloads =
        selectWorkloads(spec06Suite(), options.workloadFilter);
    const CellRunner runner(options, workloads,
                            {{RunaheadConfig::kBaseline, false}});
    TextTable table({"workload", "MPKI", "measured class",
                     "paper class", "match"});
    int matches = 0;
    int total = 0;
    for (const WorkloadSpec &spec : workloads) {
        const SimResult &r =
            runner.get(spec, RunaheadConfig::kBaseline, false);
        MemIntensity measured = MemIntensity::kLow;
        if (r.mpki >= 10.0)
            measured = MemIntensity::kHigh;
        else if (r.mpki > 2.0)
            measured = MemIntensity::kMedium;
        const bool match = measured == spec.intensity;
        ++total;
        matches += match ? 1 : 0;
        table.addRow({spec.params.name, num(r.mpki),
                      intensityName(measured),
                      intensityName(spec.intensity),
                      match ? "yes" : "NO"});
    }
    table.print();
    std::printf("\nclassification agreement: %d/%d\n", matches, total);
    return 0;
}
