/**
 * @file
 * Simulation: owns N >= 1 cores — each with its own program, private
 * L1s, frontend, ROB and runahead controller — in front of one shared
 * LLC, MSHR pool and DRAM channel (SharedMemory), runs warmup and a
 * measured region, and extracts the metrics every figure in the
 * paper's evaluation needs.
 *
 * This is the library's primary entry point:
 * @code
 *   SimConfig config = makeConfig(RunaheadConfig::kHybrid, true);
 *   Simulation sim(config, buildSuiteWorkload("mcf"));
 *   SimResult result = sim.run();
 * @endcode
 *
 * One core is the paper's Table 1 system. More cores
 * (SimConfig::numCores, one Program each) run the runahead-interference
 * experiment: per-core runahead policies (SimConfig::corePolicies)
 * competing for the shared MSHR pool, DRAM banks and LLC capacity,
 * with per-core contention accounting (core<i>.mem.bank_conflicts,
 * core<i>.mem.llc_evicted_by_others, ...) and a shared.* subtree for
 * chip-wide counters.
 *
 * Every phase runs through one lockstep loop: each cycle ticks every
 * core in a rotating round-robin order, and the loop fast-forwards only
 * when every core is provably quiescent, jumping all of them to the
 * minimum horizon so lockstep is never broken. With one core the loop
 * is the straight-line tick/fast-forward loop; tests/test_multicore.cc
 * certifies that against a reference written in the test.
 */

#ifndef RAB_CORE_SIMULATION_HH
#define RAB_CORE_SIMULATION_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/core.hh"
#include "core/sim_config.hh"
#include "energy/energy_model.hh"
#include "isa/program.hh"
#include "memory/memory_system.hh"
#include "memory/shared_memory.hh"

namespace rab
{

/** Everything a finished simulation reports. */
struct SimResult
{
    std::string workload;
    RunaheadConfig config = RunaheadConfig::kBaseline;
    bool prefetch = false;

    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double ipc = 0;

    double mpki = 0;              ///< Demand LLC misses / kilo-uop.
    double memStallFraction = 0;  ///< Fig. 1.
    double fig2OnChipFraction = 0;///< Fig. 2.

    double necessaryFraction = 0; ///< Fig. 3.
    double repeatedFraction = 0;  ///< Fig. 4.
    double avgChainLength = 0;    ///< Fig. 5.

    double missesPerInterval = 0; ///< Fig. 10.
    double bufferCycleFraction = 0; ///< Fig. 11 (of total cycles).
    double chainCacheHitRate = 0; ///< Fig. 12.
    double chainCacheExactRate = 0; ///< Fig. 13.
    double hybridBufferFraction = 0; ///< Fig. 14 (of runahead cycles).

    std::uint64_t dramRequests = 0; ///< Fig. 16.
    std::uint64_t runaheadIntervals = 0;

    /** @{ Fault campaign summary over the measured region (zero when
     *  injection is disabled). */
    std::uint64_t faultsInjected = 0;
    std::uint64_t watchdogRecoveries = 0;
    std::uint64_t degradeSteps = 0;
    int degradeLevel = 0; ///< Final DegradeLevel as an int.
    /** @} */

    EnergyBreakdown energy; ///< Figs. 17/18.

    std::string toString() const;
};

/** One SimResult ratio as the two counts behind it: the field reads
 *  scale × num / den, or 0 when den is 0. */
struct RatioTerm
{
    double SimResult::*field = nullptr;
    double scale = 1.0;
    std::uint64_t num = 0;
    std::uint64_t den = 0;
};

/** One simulation run of one or more cores. */
class Simulation
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    /**
     * One core running @p program; @p config must be finalize()d and
     * have numCores == 1.
     *
     * The constructor claims exclusive ownership of every component
     * stat tree (StatGroup::claimExclusive): components are built
     * fresh per Simulation, and this assertion guarantees it, so
     * concurrent sweep points can never alias counters.
     */
    Simulation(const SimConfig &config, Program program);

    /**
     * config.numCores cores, core i running @p programs[i]
     * (programs.size() == numCores). Each core gets a private SimConfig
     * copy with its own runahead policy (SimConfig::corePolicy) and,
     * under fault injection, a decorrelated seed (seed + core id) so
     * faults do not land in lockstep across cores. Core 0 keeps the
     * base seed, so its fault stream matches the equivalent
     * single-core run.
     */
    Simulation(const SimConfig &config, std::vector<Program> programs);
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Run warmup + measured region and collect the result. */
    SimResult run();

    /** Run only the warmup region and reset every stat counter, the
     *  fault injectors' included (the snapshot capture point). No-op
     *  when warmupInstructions == 0. */
    void runWarmup();

    /**
     * Run only the measured region and collect the result. Call after
     * runWarmup(), or after restoring a warmup snapshot.
     *
     * One core returns its own result. N > 1 returns the chip view:
     * instructions summed over the cores, cycles until the last core
     * crossed its budget, throughput IPC, each other ratio over its
     * numerator and denominator summed over the cores (MPKI is the
     * chip's demand LLC misses per kilo-instruction), the summed
     * runahead, fault and recovery counts, the chip's DRAM requests
     * over the measured region and the chip energy (per-core
     * breakdowns summed, shared LLC + DRAM static power charged once
     * over the chip window).
     */
    SimResult runMeasured();

    /** Stream the measured region's retired uops to a binary trace
     *  file (src/trace format). Installs the core's commit hook for
     *  the measured region only, so the trace record count equals the
     *  committed-uop counter. Call before run()/runMeasured(). A trace
     *  records one core's commit stream: throws std::logic_error when
     *  this simulation has more than one core. */
    void enableTrace(const std::string &path);

    Core &core(int i = 0) { return *cores_[static_cast<std::size_t>(i)]; }
    MemorySystem &memory(int i = 0)
    {
        return *mems_[static_cast<std::size_t>(i)];
    }
    const Program &program(int i = 0) const
    {
        return programs_[static_cast<std::size_t>(i)];
    }
    const SimConfig &config() const { return config_; }

    /** Core @p i's fault injector, or nullptr when disabled. */
    FaultInjector *faults(int i = 0)
    {
        return faults_[static_cast<std::size_t>(i)].get();
    }

    /** Per-core results of the last measured region, indexed by core
     *  id. Each is extracted by collectSimResult at the cycle the core
     *  crossed its instruction budget, or at the cycle limit for a
     *  core that never did. */
    const std::vector<SimResult> &coreResults() const { return results_; }

    /** Flattened stat payload of the last measured region: plain
     *  core.* / mem.* (and faults.* under injection) for one core;
     *  core<i>.* (each taken with its core's result) plus the
     *  chip-wide shared.* for N > 1. */
    const std::map<std::string, double> &statPayload() const
    {
        return payload_;
    }

    /** The stat trees this simulation claims: the raw core, mem (and
     *  faults) groups of one core, or every core<i> wrapper and, on a
     *  shared chip, the shared group. */
    std::vector<StatGroup *> statTrees();

  private:
    /** Lockstep-tick all cores until each has retired @p instructions
     *  more uops or the relative cycle limit expires. Finished cores
     *  keep ticking — they still generate contention — until the last
     *  one crosses. When @p collect, each core's result and payload
     *  are taken at its own crossing cycle. */
    void runPhase(std::uint64_t instructions, bool collect);

    /** Take core @p i's result and payload at cycle @p now. */
    void collectCore(std::size_t i, Cycle now);

    /** The chip view runMeasured() returns for N > 1. */
    SimResult chipResult(Cycle cycles);

    /** Shared-LLC inclusion invariant: every valid L1I/L1D line must
     *  be present in (or in flight towards) the shared LLC. Runs at
     *  CheckLevel::kFull every kContainmentPeriod cycles and at phase
     *  end on a chip of more than one core; throws
     *  InvariantViolation("shared-llc", ...). */
    void checkSharedContainment(Cycle now);

    static constexpr Cycle kContainmentPeriod = 4096;

    SimConfig config_;
    std::vector<SimConfig> coreConfigs_;
    std::vector<Program> programs_;
    CheckLevel checkLevel_ = CheckLevel::kOff;

    /** The chip's shared half: one, or one per core under the
     *  isolateMemory test knob. */
    std::vector<std::unique_ptr<SharedMemory>> shared_;
    /** More than one core on one SharedMemory. */
    bool sharedChip_ = false;
    std::vector<std::unique_ptr<FaultInjector>> faults_;
    std::vector<std::unique_ptr<MemorySystem>> mems_;
    std::vector<std::unique_ptr<Core>> cores_;

    /** N > 1: per-core "core<i>" wrapper over the core + mem (+ fault)
     *  groups, and the chip-wide "shared" group. Unused for N == 1,
     *  where the raw groups are collected directly so the payload
     *  matches the single-core layout key-for-key. */
    std::vector<std::unique_ptr<StatGroup>> coreGroups_;
    StatGroup sharedGroup_;

    std::string tracePath_; ///< Empty when tracing is disabled.

    Cycle measureStart_ = 0;
    std::vector<std::uint64_t> targets_; ///< Per-phase retire targets.
    std::vector<char> done_;             ///< Crossed this phase's target.
    std::vector<SimResult> results_;
    /** Each ratio's counts summed over the cores collected so far. */
    std::vector<RatioTerm> chipTerms_;
    std::map<std::string, double> payload_;
};

/**
 * Extract every SimResult metric from a finished (or budget-crossing)
 * core and its memory view. This is the single extraction path for
 * every core of every Simulation, so a multi-core per-core result
 * matches a single-core run field-for-field by construction.
 *
 * @p runahead names the core's own policy (per-core in a
 * heterogeneous mix); @p cycles is the core's measured cycle count.
 */
SimResult collectSimResult(const SimConfig &config,
                           const std::string &workload_name,
                           RunaheadConfig runahead, Core &core,
                           MemorySystem &mem, FaultInjector *faults,
                           Cycle cycles);

/** Convenience: build + finalize + run in one call. */
SimResult simulateWorkload(const std::string &workload_name,
                           RunaheadConfig runahead, bool prefetch,
                           std::uint64_t instructions,
                           std::uint64_t warmup_instructions);

} // namespace rab

#endif // RAB_CORE_SIMULATION_HH
