/**
 * @file
 * Multi-core certification suite for MultiSimulation.
 *
 * The load-bearing guarantee is N == 1 transparency: a MultiSimulation
 * with numCores == 1 must be indistinguishable from the single-core
 * Simulation it generalises — byte-identical commit stream, identical
 * cycle count, identical full statistics payload — for all six
 * runahead configurations, clean and under fault injection. Anything
 * less would mean the multi-core driver changed single-core behaviour,
 * which the sweep baselines (and every pinned result in the store)
 * depend on not happening.
 *
 * The second differential attacks the sharing layer from the other
 * side: with SimConfig::isolateMemory set, an N-core run must commit
 * exactly what N independent solo runs commit — randomized over
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

#include <map>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/multi_sim.hh"
#include "core/simulation.hh"
#include "reference_interpreter.hh"
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

/** Single-core reference: the plain Simulation everyone trusts. */
RunCapture
runSolo(const SimConfig &config, const std::string &workload)
{
    Simulation sim(config, buildSuiteWorkload(workload));
    RunCapture cap;
    sim.core().setCommitHook([&](const DynUop &uop) {
        cap.trace.push_back(captureCommit(uop));
    });
    const SimResult result = sim.run();
    cap.cycles = result.cycles;
    cap.instructions = result.instructions;
    cap.stats = sim.core().stats().collect();
    const std::map<std::string, double> mem =
        sim.memory().stats().collect();
    cap.stats.insert(mem.begin(), mem.end());
    return cap;
}

/** The same run through the N-core driver with numCores == 1. */
RunCapture
runMono(const SimConfig &config, const std::string &workload)
{
    SimConfig mono = config;
    mono.numCores = 1;
    MultiSimulation sim(mono, {buildSuiteWorkload(workload)});
    RunCapture cap;
    sim.core(0).setCommitHook([&](const DynUop &uop) {
        cap.trace.push_back(captureCommit(uop));
    });
    const MultiSimResult result = sim.run();
    cap.cycles = result.cycles;
    cap.instructions = result.instructions;
    cap.stats = result.stats;
    return cap;
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

/** numCores == 1 is byte-identical to Simulation: commit stream,
 *  cycle count and the full stat payload, for all six configs. */
TEST(MultiCore, MonoCoreMatchesSimulationByteForByte)
{
    for (const RunaheadConfig rc : kAllConfigs) {
        const SimConfig config = makeTestConfig(rc, false);
        const RunCapture solo = runSolo(config, "mcf");
        const RunCapture mono = runMono(config, "mcf");
        const std::string label = runaheadConfigName(rc);
        expectIdentical(solo, mono, label);
        expectIdenticalStats(solo, mono, label);
    }
}

/** The same transparency must hold with fault injection active —
 *  watchdog recoveries, degradation steps and all. */
TEST(MultiCore, MonoCoreMatchesSimulationUnderFaults)
{
    for (const RunaheadConfig rc : kAllConfigs) {
        const SimConfig config = makeTestConfig(rc, true);
        const RunCapture solo = runSolo(config, "mcf");
        const RunCapture mono = runMono(config, "mcf");
        const std::string label =
            std::string(runaheadConfigName(rc)) + "+faults";
        expectIdentical(solo, mono, label);
        expectIdenticalStats(solo, mono, label);
    }
}

/** Randomized isolation differential: N cores with isolateMemory set
 *  (private memory per core, no shared state at all) must commit
 *  exactly what N independent solo runs commit. Any cross-core leak
 *  through the lockstep driver — tick ordering, fast-forward horizon
 *  coupling, stat aliasing — breaks a stream. */
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

        MultiSimulation multi(config, [&] {
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
        const MultiSimResult result = multi.run();
        ASSERT_EQ(result.cores.size(),
                  static_cast<std::size_t>(cores));

        for (int i = 0; i < cores; ++i) {
            SimConfig solo_config = makeTestConfig(
                policies[static_cast<std::size_t>(i)], false);
            const RunCapture solo = runSolo(
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
            // is snapshotted at the core's own budget crossing, which
            // can land up to a commit-width short of or past the solo
            // run's crossing (the lockstep warmup lets early finishers
            // run on, shifting the measured window by a few uops).
            const std::uint64_t got =
                result.cores[static_cast<std::size_t>(i)]
                    .instructions;
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

    const MultiSimResult result =
        simulateMix(config, {"mcf", "libq", "omnetpp", "h264"});

    ASSERT_EQ(result.cores.size(), 4u);
    std::uint64_t sum = 0;
    for (const SimResult &r : result.cores) {
        EXPECT_GE(r.instructions, config.instructions);
        sum += r.instructions;
    }
    EXPECT_EQ(result.instructions, sum);
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.throughputIpc, 0.0);

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
        return simulateMix(config, {"mcf", "libq", "omnetpp", "h264"});
    };

    std::uint64_t skipped = 0;
    for (const RunaheadConfig rc : kVariants) {
        const std::string label = runaheadConfigName(rc);
        MultiSimResult ff = run(rc, true);
        MultiSimResult tick = run(rc, false);
        skipped += stripFastForward(ff.stats);
        EXPECT_EQ(stripFastForward(tick.stats), 0u) << label;

        EXPECT_EQ(ff.cycles, tick.cycles) << label;
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
 *  keys appear in a mono payload (byte-identity with Simulation). */
TEST(MultiCore, SharedMixChargesStaticPowerOnce)
{
    SimConfig config = makeTestConfig(RunaheadConfig::kHybrid, false);
    config.numCores = 2;
    config.finalize();

    const MultiSimResult result = simulateMix(config, {"mcf", "libq"});
    ASSERT_EQ(result.cores.size(), 2u);

    double percore_sum = 0;
    for (const SimResult &cr : result.cores) {
        EXPECT_GT(cr.energy.totalJ, 0.0);
        percore_sum += cr.energy.totalJ;
    }
    EXPECT_GT(result.energy.totalJ, 0.0);
    // Both cores ran the whole chip window, so each per-core breakdown
    // charged the shared static power over (almost) the full window;
    // the chip view backs out all but one of those charges.
    EXPECT_LT(result.energy.totalJ, percore_sum);
    const double shared_static_w = config.energy.llcLeakageW
        + config.energy.dramStaticW;
    const double expected = percore_sum
        + shared_static_w
            * (result.energy.seconds - result.cores[0].energy.seconds
               - result.cores[1].energy.seconds);
    EXPECT_NEAR(result.energy.totalJ, expected,
                1e-12 * percore_sum);

    EXPECT_EQ(result.stats.at("shared.energy.total_j"),
              result.energy.totalJ);
    EXPECT_EQ(result.stats.at("shared.energy.seconds"),
              result.energy.seconds);

    // Mono payloads must not grow the key: re-run N == 1 and prove
    // the shared.energy subtree is absent.
    SimConfig mono = makeTestConfig(RunaheadConfig::kHybrid, false);
    const RunCapture cap = runMono(mono, "mcf");
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

    const MultiSimResult result = simulateMix(config, {"mcf", "mcf"});

    ASSERT_EQ(result.cores.size(), 2u);
    EXPECT_EQ(result.cores[0].config, RunaheadConfig::kHybrid);
    EXPECT_EQ(result.cores[1].config, RunaheadConfig::kBaseline);
    EXPECT_GT(result.cores[0].runaheadIntervals, 0u);
    EXPECT_EQ(result.cores[1].runaheadIntervals, 0u);
}

} // namespace
} // namespace rab
