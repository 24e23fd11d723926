/**
 * @file
 * Helpers shared by the per-figure bench binaries.
 */

#ifndef RAB_BENCH_BENCH_COMMON_HH
#define RAB_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "core/experiment.hh"

namespace rab::bench
{

/** Percent formatting. */
inline std::string
pct(double fraction)
{
    return strprintf("%.1f%%", fraction * 100.0);
}

/** Signed percent-difference formatting. */
inline std::string
pctDiff(double ratio)
{
    return strprintf("%+.1f%%", (ratio - 1.0) * 100.0);
}

inline std::string
num(double v, const char *fmt = "%.2f")
{
    return strprintf(fmt, v);
}

// CellRunner (a figure's grid, run once through the sweep engine)
// lives in core/experiment.hh so the tests share it.

/** Print the standard bench banner. */
inline void
banner(const char *figure, const char *title, const BenchOptions &opts)
{
    std::printf("=== %s: %s ===\n", figure, title);
    std::printf("(%llu instructions/workload after %llu warmup on %d "
                "thread%s; override with RAB_INSTRUCTIONS / RAB_WARMUP "
                "/ RAB_WORKLOADS / RAB_THREADS)\n\n",
                (unsigned long long)opts.instructions,
                (unsigned long long)opts.warmup, opts.threads,
                opts.threads == 1 ? "" : "s");
}

} // namespace rab::bench

#endif // RAB_BENCH_BENCH_COMMON_HH
