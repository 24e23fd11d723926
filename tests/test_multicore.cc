/**
 * @file
 * Multi-core certification suite for Simulation's lockstep driver.
 *
 * The load-bearing guarantee is N == 1 transparency: one core driven
 * through the lockstep loop must be indistinguishable from the
 * straight-line single-core loop — tick, then, from a fully-stalled
 * tick only, propose a fast-forward horizon clamped to the cycle limit
 * and apply it — written here against Core's driver interface as the
 * reference: byte-identical commit stream, identical cycle count,
 * identical full statistics payload, for all six runahead
 * configurations, clean and under fault injection, and at the two
 * edges where a lockstep loop is easy to get wrong (a zero measured
 * budget, and a cycle limit that ends the measured region early).
 * Anything less would mean the multi-core generalisation changed
 * single-core behaviour, which the sweep baselines (and every pinned
 * result in the store) depend on not happening.
 *
 * The second differential attacks the sharing layer from the other
 * side: with SimConfig::isolateMemory set, an N-core run must commit
 * exactly what N independent reference runs commit — randomized over
 * workload mixes and per-core policies — because isolated cores share
 * nothing and lockstep ticking must not leak state between them.
 *
 * Shared-mode smoke: a heterogeneous mix on a shared LLC/MSHR/DRAM
 * must run to completion under the full invariant checker (which
 * audits L1-contained-in-LLC every 4096 cycles) and produce the
 * per-core and chip-wide contention accounting the interference
 * experiment reads.
 *
 * Finally, fast-forward must be invisible in shared mode as it is on
 * one core: every variant's mix run reports the same cycles and stat
 * payload with and without it.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "core/simulation.hh"
#include "fault/fault_injector.hh"
#include "reference_interpreter.hh"
#include "snapshot/snapshot.hh"
#include "workloads/suite.hh"

namespace rab
{
namespace
{

using test::RefCommit;

constexpr RunaheadConfig kAllConfigs[] = {
    RunaheadConfig::kBaseline,         RunaheadConfig::kRunahead,
    RunaheadConfig::kRunaheadEnhanced, RunaheadConfig::kRunaheadBuffer,
    RunaheadConfig::kRunaheadBufferCC, RunaheadConfig::kHybrid,
};

/** Everything a differential pair compares. */
struct RunCapture
{
    std::vector<RefCommit> trace;
    std::map<std::string, double> stats;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
};

SimConfig
makeTestConfig(RunaheadConfig rc, bool faulted)
{
    SimConfig config = makeConfig(rc, /*prefetch=*/false);
    config.warmupInstructions = 2'000;
    config.instructions = 12'000;
    config.checkLevel = CheckLevel::kFull;
    if (faulted) {
        // Speculative-only faults with the checker routing violations
        // to the degradation ladder: exercises watchdog recovery and
        // the degrade path inside the lockstep driver.
        config.checkPolicy = CheckPolicy::kDegrade;
        config.fault.enabled = true;
        config.fault.seed = 7;
        config.fault.chainCacheRate = 0.1;
        config.fault.bufferUopRate = 0.1;
    }
    config.finalize();
    return config;
}

RefCommit
captureCommit(const DynUop &uop)
{
    RefCommit c;
    c.pc = uop.pc;
    c.result = uop.sop.hasDest() || uop.isStore() ? uop.result : 0;
    c.addr = uop.sop.isMem() ? uop.effAddr : kNoAddr;
    c.taken = uop.isControl() && uop.actualTaken;
    return c;
}

/** The straight-line single-core loop: run @p core until
 *  @p instructions more uops retire or @p max_cycles elapse,
 *  fast-forwarding only from a fully-stalled tick. */
void
straightLineRun(Core &core, std::uint64_t instructions,
                std::uint64_t max_cycles)
{
    const std::uint64_t target = core.retired() + instructions;
    const Cycle cycle_limit = core.cycle() + max_cycles;
    while (core.retired() < target && core.cycle() < cycle_limit) {
        core.tick();
        if (!core.fastForwardEligible())
            continue;
        Cycle horizon = core.proposeFastForward();
        if (horizon > cycle_limit)
            horizon = cycle_limit;
        if (horizon > core.cycle() + 1)
            core.applyFastForward(horizon);
    }
}

/** Reference: one core on a one-core chip, composed by hand and
 *  driven by straightLineRun, warmup then measured region. */
RunCapture
runReference(const SimConfig &config, const std::string &workload)
{
    const Program program = buildSuiteWorkload(workload);
    SharedMemory shared(config.mem, 1);
    MemorySystem mem(config.mem, shared, 0);
    Core core(config.core, &program, &mem);
    std::unique_ptr<FaultInjector> faults;
    if (config.fault.enabled) {
        faults = std::make_unique<FaultInjector>(config.fault);
        mem.setFaultInjector(faults.get());
        core.setFaultInjector(faults.get());
    }

    RunCapture cap;
    core.setCommitHook([&](const DynUop &uop) {
        cap.trace.push_back(captureCommit(uop));
    });
    if (config.warmupInstructions > 0) {
        straightLineRun(core, config.warmupInstructions, config.maxCycles);
        core.stats().resetCounters();
        mem.stats().resetCounters();
    }

    const Cycle start = core.cycle();
    straightLineRun(core, config.instructions, config.maxCycles);
    cap.cycles = core.cycle() - start;
    cap.instructions = core.committedUops.value();
    cap.stats = core.stats().collect();
    const std::map<std::string, double> mem_stats = mem.stats().collect();
    cap.stats.insert(mem_stats.begin(), mem_stats.end());
    return cap;
}

/** The same run through Simulation's lockstep loop (both commit
 *  streams span warmup and the measured region). */
RunCapture
runSimulation(const SimConfig &config, const std::string &workload)
{
    Simulation sim(config, buildSuiteWorkload(workload));
    RunCapture cap;
    sim.core().setCommitHook([&](const DynUop &uop) {
        cap.trace.push_back(captureCommit(uop));
    });
    const SimResult result = sim.run();
    cap.cycles = result.cycles;
    cap.instructions = result.instructions;
    cap.stats = sim.statPayload();
    return cap;
}

/** A multi-core run's chip result, per-core results and payload. */
struct MixRun
{
    SimResult chip;
    std::vector<SimResult> cores;
    std::map<std::string, double> stats;
};

MixRun
runMix(const SimConfig &config, const std::vector<std::string> &workloads)
{
    std::vector<Program> programs;
    programs.reserve(workloads.size());
    for (const std::string &name : workloads)
        programs.push_back(buildSuiteWorkload(name));
    Simulation sim(config, std::move(programs));
    MixRun run;
    run.chip = sim.run();
    run.cores = sim.coreResults();
    run.stats = sim.statPayload();
    return run;
}

void
expectIdentical(const RunCapture &a, const RunCapture &b,
                const std::string &label)
{
    ASSERT_EQ(a.cycles, b.cycles) << label;
    ASSERT_EQ(a.instructions, b.instructions) << label;

    ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        ASSERT_EQ(a.trace[i].pc, b.trace[i].pc)
            << label << " uop " << i;
        ASSERT_EQ(a.trace[i].result, b.trace[i].result)
            << label << " uop " << i << " pc " << a.trace[i].pc;
        ASSERT_EQ(a.trace[i].addr, b.trace[i].addr)
            << label << " uop " << i;
        ASSERT_EQ(a.trace[i].taken, b.trace[i].taken)
            << label << " uop " << i;
    }
}

void
expectIdenticalStats(const RunCapture &a, const RunCapture &b,
                     const std::string &label)
{
    ASSERT_EQ(a.stats.size(), b.stats.size()) << label;
    for (const auto &[key, value] : b.stats) {
        const auto it = a.stats.find(key);
        ASSERT_TRUE(it != a.stats.end()) << label << " missing " << key;
        EXPECT_EQ(it->second, value) << label << " stat " << key;
    }
}

/** One core through the lockstep loop is byte-identical to the
 *  straight-line loop: commit stream, cycle count and the full stat
 *  payload, for all six configs. */
TEST(MultiCore, MonoCoreMatchesStraightLineLoopByteForByte)
{
    for (const RunaheadConfig rc : kAllConfigs) {
        const SimConfig config = makeTestConfig(rc, false);
        const RunCapture ref = runReference(config, "mcf");
        const RunCapture sim = runSimulation(config, "mcf");
        const std::string label = runaheadConfigName(rc);
        expectIdentical(ref, sim, label);
        expectIdenticalStats(ref, sim, label);
    }
}

/** The same transparency must hold with fault injection active —
 *  watchdog recoveries, degradation steps and all. */
TEST(MultiCore, MonoCoreMatchesStraightLineLoopUnderFaults)
{
    for (const RunaheadConfig rc : kAllConfigs) {
        const SimConfig config = makeTestConfig(rc, true);
        const RunCapture ref = runReference(config, "mcf");
        const RunCapture sim = runSimulation(config, "mcf");
        const std::string label =
            std::string(runaheadConfigName(rc)) + "+faults";
        expectIdentical(ref, sim, label);
        expectIdenticalStats(ref, sim, label);
    }
}

/** A zero measured budget retires nothing: budgets are checked before
 *  the first tick, so the measured region is empty, not one tick. */
TEST(MultiCore, ZeroMeasuredBudgetTicksNothing)
{
    SimConfig config = makeTestConfig(RunaheadConfig::kHybrid, false);
    config.instructions = 0;
    const RunCapture ref = runReference(config, "mcf");
    const RunCapture sim = runSimulation(config, "mcf");
    EXPECT_EQ(sim.instructions, 0u);
    EXPECT_EQ(sim.cycles, 0u);
    expectIdentical(ref, sim, "zero budget");
    expectIdenticalStats(ref, sim, "zero budget");
}

/** A cycle limit that ends the measured region before the budget
 *  still reports what the core retired, at the limit. */
TEST(MultiCore, CycleLimitEndsMeasuredRegionEarly)
{
    SimConfig config = makeTestConfig(RunaheadConfig::kBaseline, false);
    config.maxCycles = 5'000;
    const RunCapture ref = runReference(config, "mcf");
    const RunCapture sim = runSimulation(config, "mcf");
    EXPECT_EQ(sim.cycles, config.maxCycles);
    EXPECT_GT(sim.instructions, 0u);
    EXPECT_LT(sim.instructions, config.instructions);
    expectIdentical(ref, sim, "cycle limit");
    expectIdenticalStats(ref, sim, "cycle limit");
}

/** The same cycle limit on a 2-core mix: every core the limit stopped
 *  reports its own partial result and payload. */
TEST(MultiCore, CycleLimitCollectsEveryMixCore)
{
    SimConfig config = makeTestConfig(RunaheadConfig::kBaseline, false);
    config.numCores = 2;
    config.maxCycles = 5'000;
    const std::vector<std::string> workloads = {"mcf", "libq"};
    const MixRun run = runMix(config, workloads);

    EXPECT_EQ(run.chip.cycles, config.maxCycles);
    ASSERT_EQ(run.cores.size(), 2u);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < run.cores.size(); ++i) {
        const SimResult &core = run.cores[i];
        EXPECT_EQ(core.workload, workloads[i]) << i;
        EXPECT_EQ(core.cycles, config.maxCycles) << i;
        EXPECT_GT(core.instructions, 0u) << i;
        EXPECT_LT(core.instructions, config.instructions) << i;
        sum += core.instructions;
        const std::string committed =
            "core" + std::to_string(i) + ".core.committed_uops";
        ASSERT_TRUE(run.stats.count(committed)) << committed;
        EXPECT_EQ(run.stats.at(committed),
                  static_cast<double>(core.instructions))
            << i;
    }
    EXPECT_EQ(run.chip.instructions, sum);
}

/** Images hold one core: capture refuses a 2-core simulation, and a
 *  1-core image does not restore into one. */
TEST(MultiCore, SnapshotsRefuseMultiCoreSimulations)
{
    const SimConfig solo = makeTestConfig(RunaheadConfig::kBaseline, false);
    Simulation one(solo, buildSuiteWorkload("mcf"));
    one.runWarmup();
    const std::string image = captureSnapshot(one);

    SimConfig duo = solo;
    duo.numCores = 2;
    const auto make_duo = [&] {
        std::vector<Program> programs;
        programs.push_back(buildSuiteWorkload("mcf"));
        programs.push_back(buildSuiteWorkload("mcf"));
        return std::make_unique<Simulation>(duo, std::move(programs));
    };

    std::unique_ptr<Simulation> sim = make_duo();
    sim->runWarmup();
    EXPECT_THROW(captureSnapshot(*sim), SnapshotError);

    for (const SnapshotRestoreMode mode :
         {SnapshotRestoreMode::kExact, SnapshotRestoreMode::kFork}) {
        sim = make_duo();
        try {
            restoreSnapshot(*sim, image, mode);
            ADD_FAILURE() << "1-core image restored into 2 cores";
        } catch (const SnapshotError &e) {
            EXPECT_EQ(e.kind(), SnapshotErrorKind::kMismatch)
                << snapshotErrorKindName(e.kind());
        }
    }
}

/** A retirement trace records one core's commit stream. */
TEST(MultiCore, TraceRefusesMultiCoreSimulations)
{
    SimConfig config = makeTestConfig(RunaheadConfig::kBaseline, false);
    config.numCores = 2;
    std::vector<Program> programs;
    programs.push_back(buildSuiteWorkload("mcf"));
    programs.push_back(buildSuiteWorkload("libq"));
    Simulation sim(config, std::move(programs));
    const std::string path =
        (std::filesystem::path(::testing::TempDir()) / "duo.rabt")
            .string();
    EXPECT_THROW(sim.enableTrace(path), std::logic_error);
}

/** Randomized isolation differential: N cores with isolateMemory set
 *  (private memory per core, no shared state at all) must commit
 *  exactly what N independent reference runs commit. Any cross-core
 *  leak through the lockstep driver — tick ordering, fast-forward
 *  horizon coupling, stat aliasing — breaks a stream. */
TEST(MultiCore, IsolatedCoresMatchSoloRuns)
{
    const std::vector<std::string> pool = {"mcf", "libq", "omnetpp",
                                           "h264", "lbm"};
    Rng rng(0xC0DE5EED);
    for (int round = 0; round < 3; ++round) {
        const int cores = 2 + static_cast<int>(rng.range(3)); // 2..4
        std::vector<std::string> workloads;
        std::vector<RunaheadConfig> policies;
        for (int i = 0; i < cores; ++i) {
            workloads.push_back(
                pool[static_cast<std::size_t>(rng.range(
                    static_cast<std::uint32_t>(pool.size())))]);
            policies.push_back(kAllConfigs[rng.range(6)]);
        }

        SimConfig config = makeTestConfig(policies[0], false);
        config.numCores = cores;
        config.corePolicies = policies;
        config.isolateMemory = true;

        Simulation multi(config, [&] {
            std::vector<Program> programs;
            for (const std::string &w : workloads)
                programs.push_back(buildSuiteWorkload(w));
            return programs;
        }());
        std::vector<std::vector<RefCommit>> traces(
            static_cast<std::size_t>(cores));
        for (int i = 0; i < cores; ++i) {
            auto &trace = traces[static_cast<std::size_t>(i)];
            multi.core(i).setCommitHook([&trace](const DynUop &uop) {
                trace.push_back(captureCommit(uop));
            });
        }
        multi.run();
        ASSERT_EQ(multi.coreResults().size(), static_cast<std::size_t>(cores));

        for (int i = 0; i < cores; ++i) {
            SimConfig solo_config = makeTestConfig(
                policies[static_cast<std::size_t>(i)], false);
            const RunCapture solo = runReference(
                solo_config, workloads[static_cast<std::size_t>(i)]);
            const std::string label =
                "round " + std::to_string(round) + " core "
                + std::to_string(i) + " ("
                + workloads[static_cast<std::size_t>(i)] + "/"
                + runaheadConfigName(
                    policies[static_cast<std::size_t>(i)])
                + ")";
            // A core that crosses its budget early keeps running (in
            // shared mode it must keep generating contention; the
            // isolated driver does the same for uniformity), so its
            // stream extends past the solo run's end: the solo trace
            // must be an exact prefix of the multi trace.
            const auto &trace = traces[static_cast<std::size_t>(i)];
            ASSERT_GE(trace.size(), solo.trace.size()) << label;
            for (std::size_t u = 0; u < solo.trace.size(); ++u) {
                ASSERT_EQ(solo.trace[u].pc, trace[u].pc)
                    << label << " uop " << u;
                ASSERT_EQ(solo.trace[u].result, trace[u].result)
                    << label << " uop " << u;
                ASSERT_EQ(solo.trace[u].addr, trace[u].addr)
                    << label << " uop " << u;
            }
            // Isolated cores still report per-core results. The count
            // is taken at the core's own budget crossing, which can
            // land up to a commit-width short of or past the solo
            // run's crossing (the lockstep warmup lets early finishers
            // run on, shifting the measured window by a few uops).
            const std::uint64_t got =
                multi.coreResults()[static_cast<std::size_t>(i)].instructions;
            EXPECT_GE(got, config.instructions) << label;
            EXPECT_LE(got,
                      config.instructions
                          + static_cast<std::uint64_t>(
                              config.core.commitWidth))
                << label;
        }
    }
}

/** Shared-mode smoke: a heterogeneous 4-core mix on one LLC/MSHR/DRAM
 *  runs to completion under the full checker and reports per-core +
 *  chip-wide contention stats. */
TEST(MultiCore, SharedMixRunsWithContentionAccounting)
{
    SimConfig config = makeTestConfig(RunaheadConfig::kHybrid, false);
    config.numCores = 4;
    config.finalize();

    const MixRun result = runMix(config, {"mcf", "libq", "omnetpp", "h264"});

    ASSERT_EQ(result.cores.size(), 4u);
    std::uint64_t sum = 0;
    for (const SimResult &r : result.cores) {
        EXPECT_GE(r.instructions, config.instructions);
        sum += r.instructions;
    }
    EXPECT_EQ(result.chip.instructions, sum);
    EXPECT_GT(result.chip.cycles, 0u);
    EXPECT_GT(result.chip.ipc, 0.0);

    // The interference experiment reads these exact keys.
    EXPECT_TRUE(result.stats.count("shared.cross_core_evictions"));
    for (int i = 0; i < 4; ++i) {
        const std::string p = "core" + std::to_string(i) + ".mem.";
        EXPECT_TRUE(result.stats.count(p + "bank_conflicts")) << i;
        EXPECT_TRUE(result.stats.count(p + "bank_conflict_wait_cycles"))
            << i;
        EXPECT_TRUE(result.stats.count(p + "llc_evicted_by_others"))
            << i;
        EXPECT_TRUE(result.stats.count(p + "shared_mshr_peers_held"))
            << i;
        EXPECT_TRUE(result.stats.count(p + "queue_rejects_contended"))
            << i;
        EXPECT_TRUE(result.stats.count(
            "shared.core" + std::to_string(i) + ".mshr_peak"))
            << i;
        // Per-core pipeline stats survive the core<i> re-rooting.
        EXPECT_TRUE(result.stats.count(
            "core" + std::to_string(i) + ".core.committed_uops"))
            << i;
    }

    // Four cores hammering one DRAM channel must actually contend:
    // at least one bank conflict somewhere, or the accounting is dead.
    double conflicts = 0;
    for (int i = 0; i < 4; ++i)
        conflicts += result.stats.at(
            "core" + std::to_string(i) + ".mem.bank_conflicts");
    EXPECT_GT(conflicts, 0.0);

    // The chip reports its DRAM traffic once, over the measured
    // region: the shared channel's own reads + writes.
    EXPECT_EQ(static_cast<double>(result.chip.dramRequests),
              result.stats.at("shared.dram.reads")
                  + result.stats.at("shared.dram.writes"));
}

/** Remove the core<i>.core.fastforward.* window counters — the one
 *  legitimate difference between a fast-forwarded and a ticked run —
 *  returning the skipped cycles they recorded. */
std::uint64_t
stripFastForward(std::map<std::string, double> &stats)
{
    std::uint64_t skipped = 0;
    for (auto it = stats.begin(); it != stats.end();) {
        if (it->first.find(".core.fastforward.") == std::string::npos) {
            ++it;
            continue;
        }
        if (it->first.find(".skipped_cycles") != std::string::npos)
            skipped += static_cast<std::uint64_t>(it->second);
        it = stats.erase(it);
    }
    return skipped;
}

/** Fast-forward in shared mode: mix4 under each of the six sweep
 *  variants, with fast-forward on and off, reports identical cycles
 *  and per-core and chip-wide stat payloads. The chain engine catches
 *  up at cycles behind its core's, so this also pins the memory
 *  system's next-event query as side-effect free. */
TEST(MultiCore, SharedMixFastForwardMatchesTickByTick)
{
    constexpr RunaheadConfig kVariants[] = {
        RunaheadConfig::kBaseline, RunaheadConfig::kRunahead,
        RunaheadConfig::kRunaheadBufferCC, RunaheadConfig::kHybrid,
        RunaheadConfig::kCRE, RunaheadConfig::kCREHybrid,
    };
    const auto run = [](RunaheadConfig rc, bool fast_forward) {
        SimConfig config = makeTestConfig(rc, false);
        config.numCores = 4;
        config.warmupInstructions = 2'000;
        config.instructions = 12'000;
        config.fastForward = fast_forward;
        config.finalize();
        return runMix(config, {"mcf", "libq", "omnetpp", "h264"});
    };

    std::uint64_t skipped = 0;
    for (const RunaheadConfig rc : kVariants) {
        const std::string label = runaheadConfigName(rc);
        MixRun ff = run(rc, true);
        MixRun tick = run(rc, false);
        skipped += stripFastForward(ff.stats);
        EXPECT_EQ(stripFastForward(tick.stats), 0u) << label;

        EXPECT_EQ(ff.chip.cycles, tick.chip.cycles) << label;
        ASSERT_EQ(ff.cores.size(), tick.cores.size()) << label;
        for (std::size_t i = 0; i < ff.cores.size(); ++i) {
            EXPECT_EQ(ff.cores[i].cycles, tick.cores[i].cycles)
                << label << " core " << i;
            EXPECT_EQ(ff.cores[i].instructions, tick.cores[i].instructions)
                << label << " core " << i;
        }
        ASSERT_EQ(ff.stats.size(), tick.stats.size()) << label;
        for (const auto &[key, value] : tick.stats) {
            const auto it = ff.stats.find(key);
            ASSERT_TRUE(it != ff.stats.end()) << label << " missing "
                                              << key;
            EXPECT_EQ(it->second, value) << label << " stat " << key;
        }
    }
    // The windows must actually have opened somewhere, or the
    // comparison proves nothing.
    EXPECT_GT(skipped, 0u);
}

/** Chip-level energy accounting: a shared-memory mix reports a chip
 *  EnergyBreakdown in which the shared LLC/DRAM static power is
 *  charged once for the chip, not once per core — so the chip total
 *  sits strictly between the dynamic-only sum and the naive sum of
 *  per-core totals. The N == 1 path stays untouched: no shared.energy
 *  keys appear in a one-core payload. */
TEST(MultiCore, SharedMixChargesStaticPowerOnce)
{
    SimConfig config = makeTestConfig(RunaheadConfig::kHybrid, false);
    config.numCores = 2;
    config.finalize();

    const MixRun result = runMix(config, {"mcf", "libq"});
    ASSERT_EQ(result.cores.size(), 2u);

    double percore_sum = 0;
    for (const SimResult &cr : result.cores) {
        EXPECT_GT(cr.energy.totalJ, 0.0);
        percore_sum += cr.energy.totalJ;
    }
    EXPECT_GT(result.chip.energy.totalJ, 0.0);
    // Both cores ran the whole chip window, so each per-core breakdown
    // charged the shared static power over (almost) the full window;
    // the chip view backs out all but one of those charges.
    EXPECT_LT(result.chip.energy.totalJ, percore_sum);
    const double shared_static_w = config.energy.llcLeakageW
        + config.energy.dramStaticW;
    const double expected = percore_sum
        + shared_static_w
            * (result.chip.energy.seconds - result.cores[0].energy.seconds
               - result.cores[1].energy.seconds);
    EXPECT_NEAR(result.chip.energy.totalJ, expected, 1e-12 * percore_sum);

    EXPECT_EQ(result.stats.at("shared.energy.total_j"),
              result.chip.energy.totalJ);
    EXPECT_EQ(result.stats.at("shared.energy.seconds"),
              result.chip.energy.seconds);

    // One-core payloads must not grow the key.
    const SimConfig mono = makeTestConfig(RunaheadConfig::kHybrid, false);
    const RunCapture cap = runSimulation(mono, "mcf");
    for (const auto &[key, value] : cap.stats)
        EXPECT_EQ(key.rfind("shared.", 0), std::string::npos) << key;
}

/** Heterogeneous per-core policies: each core runs its own runahead
 *  configuration, and the per-core results reflect it (runahead cores
 *  enter runahead intervals; the baseline core never does). */
TEST(MultiCore, PerCorePoliciesApplyIndependently)
{
    SimConfig config = makeTestConfig(RunaheadConfig::kHybrid, false);
    config.numCores = 2;
    config.corePolicies = {RunaheadConfig::kHybrid,
                           RunaheadConfig::kBaseline};
    config.finalize();

    const MixRun result = runMix(config, {"mcf", "mcf"});

    ASSERT_EQ(result.cores.size(), 2u);
    EXPECT_EQ(result.cores[0].config, RunaheadConfig::kHybrid);
    EXPECT_EQ(result.cores[1].config, RunaheadConfig::kBaseline);
    EXPECT_GT(result.cores[0].runaheadIntervals, 0u);
    EXPECT_EQ(result.cores[1].runaheadIntervals, 0u);
}

/** A core whose policy differs from `runahead` is re-finalized under
 *  its own: that sets the policy's mechanism switches and keeps the
 *  sizes set after makeConfig (rabsim's --buffer and --chain-cache). */
TEST(MultiCore, PerCorePoliciesKeepSizingOverrides)
{
    SimConfig config = makeConfig(RunaheadConfig::kBaseline, false);
    config.numCores = 2;
    config.corePolicies = {RunaheadConfig::kBaseline,
                           RunaheadConfig::kRunaheadBufferCC};
    config.core.runahead.chainGen.maxChainLength = 8;
    config.core.runahead.chainCacheEntries = 1;
    std::vector<Program> programs;
    programs.push_back(buildSuiteWorkload("mcf"));
    programs.push_back(buildSuiteWorkload("mcf"));
    Simulation sim(config, std::move(programs));

    const RunaheadPolicy &policy = sim.core(1).config().runahead;
    EXPECT_EQ(policy.chainGen.maxChainLength, 8);
    EXPECT_EQ(policy.chainCacheEntries, 1);
    const RunaheadPolicy preset = policyBufferChainCache();
    EXPECT_EQ(policy.traditionalEnabled, preset.traditionalEnabled);
    EXPECT_EQ(policy.bufferEnabled, preset.bufferEnabled);
    EXPECT_EQ(policy.chainCacheEnabled, preset.chainCacheEnabled);
    EXPECT_EQ(policy.hybrid, preset.hybrid);
    EXPECT_EQ(policy.enhancements, preset.enhancements);
    EXPECT_EQ(policy.engine.enabled, preset.engine.enabled);
}

} // namespace
} // namespace rab
