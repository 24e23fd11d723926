/**
 * @file
 * One simulation point driven through the library's public API, timed
 * from outside at every layer boundary: workload build, Simulation
 * construction, warmup (inline or fork restore from a warmup image),
 * the measured region and stat collection.
 *
 * The traced variant replaces Core::run with the same loop written
 * against Core's external-driver API (tick / fastForwardEligible /
 * proposeFastForward / applyFastForward) and reads the runahead mode
 * before every tick, which splits host time into normal, traditional
 * runahead and runahead-buffer ticks plus fast-forward without any
 * change to the simulator.
 */

#ifndef RAB_PERFBENCH_DRIVER_HH
#define RAB_PERFBENCH_DRIVER_HH

#include <cstdint>
#include <map>
#include <string>

#include "core/simulation.hh"
#include "timing.hh"
#include "workloads/builders.hh"

namespace perfbench
{

/** Host time per runahead mode, measured around each Core::tick(). */
struct TickTrace
{
    /** Indexed by rab::RunaheadMode (normal, traditional, buffer). */
    static constexpr int kModes = 3;

    NsHistogram tickNs[kModes];
    double modeSeconds[kModes] = {};
    std::uint64_t modeTicks[kModes] = {};
    double ffSeconds = 0; ///< proposeFastForward + applyFastForward.

    void merge(const TickTrace &other);
};

/** Core::run(max_instructions, max_cycles), written against the
 *  external-driver API and timed per tick into @p trace. */
void drivenRun(rab::Core &core, std::uint64_t max_instructions,
               std::uint64_t max_cycles, TickTrace &trace);

/** One single-core point of a benchmark grid. */
struct PointSpec
{
    std::string workload;
    std::string variant; ///< Config label, e.g. "buffer-cc".
    std::uint64_t seed = 0; ///< 0: the suite workload's default seed.
    std::uint64_t instructions = 0;
    std::uint64_t warmup = 0;

    /** "<workload>/<variant>/<seed>": unique within a grid. */
    std::string key() const;
};

/** The point's SimConfig: checking off, no fault injection. */
rab::SimConfig pointConfig(const PointSpec &point);

/** The config a shared warmup image is captured under: the baseline
 *  policy with the point's budgets (what sweep campaigns fork from). */
rab::SimConfig warmupImageConfig(const PointSpec &point);

/** Suite parameters of the point's workload, reseeded when seed != 0. */
rab::WorkloadParams pointParams(const PointSpec &point);

/** Outcome of one point, with the host time of each layer. */
struct PointRun
{
    bool ok = false;
    std::string error;

    double buildS = 0;     ///< buildWorkload.
    double constructS = 0; ///< Simulation constructor.
    double warmupS = 0;    ///< Simulation::runWarmup (inline warmup).
    double restoreS = 0;   ///< restoreSnapshot(kFork) (image warmup).
    double measuredS = 0;  ///< Measured region.
    double collectS = 0;   ///< Result + stat payload extraction.

    rab::SimResult result;
    /** Flattened core + memory stat payload. */
    std::map<std::string, double> stats;
    std::uint64_t digest = 0; ///< statsDigest(stats).

    double setupS() const
    {
        return buildS + constructS + warmupS + restoreS;
    }
};

/**
 * Run @p point. With @p warmup_image, the simulation fork-restores
 * from it instead of warming inline. Without @p trace the measured
 * region is Simulation::runMeasured(); with it, drivenRun() followed
 * by collectSimResult(), exactly what runMeasured() does untraced.
 * Never throws: a failure (exception, instruction budget not reached)
 * comes back as !ok with the reason.
 */
PointRun runPoint(const PointSpec &point,
                  const std::string *warmup_image, TickTrace *trace);

/** FNV-1a 64 over the payload's "name=value" lines (exact doubles). */
std::uint64_t statsDigest(const std::map<std::string, double> &stats);

} // namespace perfbench

#endif // RAB_PERFBENCH_DRIVER_HH
