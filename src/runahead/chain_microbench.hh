/**
 * @file
 * Chain-generation latency microbenchmark.
 *
 * Times ChainGenerator::generate() — which builds its PC and
 * destination-register CAMs over the live window when it runs —
 * against a full, realistically structured ROB (a pointer-chasing loop
 * body repeated to capacity) in two cases: the blocking load's next
 * instance one loop body behind the head (the common case, where the
 * PC CAM pass stops early) and a blocking PC absent from the window
 * (the PC CAM pass spans every entry). Reports the per-call latency
 * distribution of each. Shared between the bench_chain_generation
 * binary (human-readable table) and rabsweep, which embeds the result
 * in the sweep manifest's environment section so every campaign
 * records the generation cost it ran with.
 */

#ifndef RAB_RUNAHEAD_CHAIN_MICROBENCH_HH
#define RAB_RUNAHEAD_CHAIN_MICROBENCH_HH

#include <cstdint>

#include "stats/json.hh"

namespace rab
{

/** Per-call latency distribution of one generate() variant. */
struct ChainGenLatencyDist
{
    std::uint64_t calls = 0;
    double minNs = 0;
    double p50Ns = 0;
    double p90Ns = 0;
    double p99Ns = 0;
    double maxNs = 0;
    double meanNs = 0;
};

/** Both cases. */
struct ChainGenMicrobench
{
    ChainGenLatencyDist match;   ///< Younger instance one body on.
    ChainGenLatencyDist noMatch; ///< Blocking PC not in the window.
    int robEntries = 0;
    int chainLength = 0; ///< Ops in the generated chain (sanity).
};

/**
 * Run the microbenchmark.
 *
 * @param rob_entries ROB capacity to fill (Table 1 default 192).
 * @param iterations  timed generate() calls per case.
 */
ChainGenMicrobench runChainGenMicrobench(int rob_entries = 192,
                                         int iterations = 4000);

/** JSON form (for the sweep manifest). */
Json chainGenMicrobenchJson(const ChainGenMicrobench &result);

} // namespace rab

#endif // RAB_RUNAHEAD_CHAIN_MICROBENCH_HH
