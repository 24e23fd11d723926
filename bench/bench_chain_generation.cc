/**
 * @file
 * Chain-generation latency microbenchmark: Algorithm 1 against a full
 * 192-entry ROB, timed per call with the blocking load's next instance
 * one loop body behind the head ("match", the common case) and with
 * the blocking PC absent from the window ("no match", where the PC CAM
 * pass spans every entry). generate() builds its CAM lookups when it
 * runs, so these latencies are the whole cost of the lookups. The
 * same measurement is embedded in every rabsweep manifest.
 */

#include <cstdlib>

#include "bench_common.hh"
#include "runahead/chain_microbench.hh"

using namespace rab;
using namespace rab::bench;

int
main()
{
    setVerbose(false);
    int iterations = 4000;
    if (const char *env = std::getenv("RAB_ITERATIONS"))
        iterations = std::atoi(env);
    if (iterations <= 0)
        iterations = 4000;

    std::printf("=== chain generation: per-call latency ===\n");
    std::printf("(%d timed generate() calls per case against a full "
                "Table 1 ROB;\noverride with RAB_ITERATIONS)\n\n",
                iterations);

    const ChainGenMicrobench r = runChainGenMicrobench(192, iterations);

    TextTable table({"case", "calls", "min ns", "p50 ns", "p90 ns",
                     "p99 ns", "max ns", "mean ns"});
    const auto row = [&](const char *name,
                         const ChainGenLatencyDist &d) {
        table.addRow({name, num(double(d.calls), "%.0f"),
                      num(d.minNs, "%.0f"), num(d.p50Ns, "%.0f"),
                      num(d.p90Ns, "%.0f"), num(d.p99Ns, "%.0f"),
                      num(d.maxNs, "%.0f"), num(d.meanNs, "%.1f")});
    };
    row("match", r.match);
    row("no match", r.noMatch);
    table.print();

    std::printf("\nrob entries: %d, generated chain length: %d ops\n",
                r.robEntries, r.chainLength);
    std::printf("\nThe generator's lookups are certified equal to the "
                "ROB's whole-window\nscans by tests/test_rob_index.cc.\n");
    return 0;
}
