/**
 * @file
 * Fault injection, recovery and containment tests.
 *
 * Layers under test (src/fault + the wiring through the core, memory
 * system and runahead controller):
 *   - FaultInjector: every fault kind fires, deterministically per seed.
 *   - CheckPolicy: violations route to the degrade sink instead of
 *     throwing for speculative modules, and still throw otherwise.
 *   - DegradationLadder: steps down in order under faults and re-enables
 *     stepwise after the probation window.
 *   - ForwardProgressWatchdog: grants bounded recoveries, resets on
 *     progress, and gives up with WatchdogTimeout when recovery stops
 *     helping.
 *   - The headline differential guarantee: speculative-only faults
 *     leave the architectural commit stream bit-identical to the
 *     fault-free run, across all six paper configurations.
 *   - Memory-side faults (DRAM drops/delays, queue stall windows) are
 *     survived via bounded retry + watchdog, with the retry statistics
 *     surfaced, and also never change architectural results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "checker/invariant_checker.hh"
#include "core/simulation.hh"
#include "fault/fault_injector.hh"
#include "fault/watchdog.hh"
#include "runahead/chain_cache.hh"
#include "runahead/degradation_ladder.hh"
#include "workloads/suite.hh"

namespace rab
{
namespace
{

DependenceChain
makeChain()
{
    DependenceChain chain;
    for (int i = 0; i < 4; ++i) {
        ChainOp op;
        op.pc = static_cast<Pc>(10 + i);
        op.sop.op = Opcode::kIntAlu;
        op.sop.func = AluFunc::kAdd;
        op.sop.dest = static_cast<ArchReg>(1 + i);
        op.sop.src1 = static_cast<ArchReg>(i);
        op.sop.imm = i;
        chain.push_back(op);
    }
    chain.back().sop.op = Opcode::kLoad;
    return chain;
}

FaultConfig
allOn()
{
    FaultConfig config;
    config.enabled = true;
    config.setAllRates(1.0);
    return config;
}

// ---------------------------------------------------------------------
// FaultInjector units
// ---------------------------------------------------------------------

TEST(FaultInjector, DisabledInjectorIsInert)
{
    FaultConfig config; // enabled = false, rates would not matter
    config.setAllRates(1.0);
    FaultInjector inj(config);
    Uop uop;
    uop.op = Opcode::kIntAlu;
    uop.dest = 1;
    EXPECT_FALSE(inj.maybeCorruptUop(uop));
    EXPECT_FALSE(inj.dropDramResponse());
    EXPECT_EQ(inj.dramDelay(), 0u);
    EXPECT_FALSE(inj.memQueueStalled(0));
    EXPECT_EQ(inj.totalInjected(), 0u);
}

TEST(FaultInjector, ChainCacheCorruptionFires)
{
    FaultInjector inj(allOn());
    ChainCache cache(2);
    const DependenceChain original = makeChain();
    cache.insert(42, original);

    EXPECT_TRUE(inj.maybeCorruptChainCache(cache));
    EXPECT_EQ(inj.chainCorruptions.value(), 1u);
    const DependenceChain *stored = cache.lookup(42);
    ASSERT_NE(stored, nullptr);
    EXPECT_FALSE(chainsEqual(*stored, original));
}

TEST(FaultInjector, ChainCorruptionKeepsChainStructurallyLegal)
{
    FaultInjector inj(allOn());
    for (int round = 0; round < 200; ++round) {
        DependenceChain chain = makeChain();
        inj.corruptChain(chain, /*program_size=*/64);
        ASSERT_FALSE(chain.empty());
        for (const ChainOp &op : chain) {
            ASSERT_LT(op.pc, 64u);
            if (op.sop.dest != kNoArchReg) {
                ASSERT_LT(op.sop.dest, kNumArchRegs);
            }
            if (op.sop.src1 != kNoArchReg) {
                ASSERT_LT(op.sop.src1, kNumArchRegs);
            }
            if (op.sop.src2 != kNoArchReg) {
                ASSERT_LT(op.sop.src2, kNumArchRegs);
            }
        }
    }
}

TEST(FaultInjector, UopFlipFiresAndStaysLegal)
{
    FaultInjector inj(allOn());
    for (int round = 0; round < 100; ++round) {
        Uop uop;
        uop.op = Opcode::kLoad;
        uop.dest = 3;
        uop.src1 = 4;
        uop.imm = 8;
        ASSERT_TRUE(inj.maybeCorruptUop(uop));
        // Opcode class never changes; present registers stay valid.
        ASSERT_EQ(uop.op, Opcode::kLoad);
        ASSERT_NE(uop.dest, kNoArchReg);
        ASSERT_LT(uop.dest, kNumArchRegs);
        ASSERT_NE(uop.src1, kNoArchReg);
        ASSERT_LT(uop.src1, kNumArchRegs);
    }
    EXPECT_EQ(inj.uopFlips.value(), 100u);
}

TEST(FaultInjector, MemoryFaultKindsFire)
{
    FaultInjector inj(allOn());
    EXPECT_TRUE(inj.dropDramResponse());
    EXPECT_GT(inj.dramDelay(), 0u);
    EXPECT_TRUE(inj.memQueueStalled(100));
    EXPECT_EQ(inj.dramDrops.value(), 1u);
    EXPECT_EQ(inj.dramDelays.value(), 1u);
    EXPECT_EQ(inj.memStallWindows.value(), 1u);
    // The stall window stays open for memStallCycles...
    EXPECT_TRUE(inj.memQueueStalled(100 + inj.config().memStallCycles / 2));
    EXPECT_EQ(inj.memStallWindows.value(), 1u); // ...without re-rolling.
    EXPECT_GE(inj.totalInjected(), 3u);
}

TEST(FaultInjector, SameSeedSameSchedule)
{
    FaultConfig config;
    config.enabled = true;
    config.dramDropRate = 0.5;
    config.dramDelayRate = 0.5;
    config.seed = 12345;

    std::vector<std::uint64_t> a, b;
    {
        FaultInjector inj(config);
        for (int i = 0; i < 200; ++i) {
            a.push_back(inj.dropDramResponse() ? 1 : 0);
            a.push_back(inj.dramDelay());
        }
    }
    {
        FaultInjector inj(config);
        for (int i = 0; i < 200; ++i) {
            b.push_back(inj.dropDramResponse() ? 1 : 0);
            b.push_back(inj.dramDelay());
        }
    }
    EXPECT_EQ(a, b);

    config.seed = 54321;
    FaultInjector other(config);
    std::vector<std::uint64_t> c;
    for (int i = 0; i < 200; ++i) {
        c.push_back(other.dropDramResponse() ? 1 : 0);
        c.push_back(other.dramDelay());
    }
    EXPECT_NE(a, c);
}

// ---------------------------------------------------------------------
// CheckPolicy
// ---------------------------------------------------------------------

TEST(CheckPolicy, ParseAndNames)
{
    EXPECT_EQ(parseCheckPolicy("throw"), CheckPolicy::kThrow);
    EXPECT_EQ(parseCheckPolicy("degrade"), CheckPolicy::kDegrade);
    EXPECT_STREQ(checkPolicyName(CheckPolicy::kThrow), "throw");
    EXPECT_STREQ(checkPolicyName(CheckPolicy::kDegrade), "degrade");
    EXPECT_TRUE(InvariantChecker::isSpeculativeModule("chain"));
    EXPECT_TRUE(InvariantChecker::isSpeculativeModule("chain_cache"));
    EXPECT_TRUE(InvariantChecker::isSpeculativeModule("runahead"));
    EXPECT_FALSE(InvariantChecker::isSpeculativeModule("rob"));
    EXPECT_FALSE(InvariantChecker::isSpeculativeModule("rename"));
}

TEST(CheckPolicy, SpeculativeViolationRoutesToSinkUnderDegrade)
{
    CheckerContext ctx; // empty: chain checks need no structures
    InvariantChecker checker(CheckLevel::kFull, ctx);
    checker.setPolicy(CheckPolicy::kDegrade);
    int routed = 0;
    checker.setDegradeSink(
        [&](const InvariantViolation &v) {
            ++routed;
            EXPECT_EQ(v.module(), "chain");
        });

    DependenceChain empty;
    EXPECT_NO_THROW(checker.checkChain(empty, 5, 32));
    EXPECT_EQ(routed, 1);
    EXPECT_EQ(checker.violationsRouted.value(), 1u);
    EXPECT_EQ(checker.violations.value(), 1u);
}

TEST(CheckPolicy, ThrowPolicyStillThrows)
{
    CheckerContext ctx;
    InvariantChecker checker(CheckLevel::kFull, ctx);
    checker.setPolicy(CheckPolicy::kThrow);
    checker.setDegradeSink([](const InvariantViolation &) {});
    DependenceChain empty;
    EXPECT_THROW(checker.checkChain(empty, 5, 32), InvariantViolation);
}

TEST(CheckPolicy, DegradeWithoutSinkThrows)
{
    CheckerContext ctx;
    InvariantChecker checker(CheckLevel::kFull, ctx);
    checker.setPolicy(CheckPolicy::kDegrade);
    DependenceChain empty;
    EXPECT_THROW(checker.checkChain(empty, 5, 32), InvariantViolation);
}

// ---------------------------------------------------------------------
// Degradation ladder
// ---------------------------------------------------------------------

TEST(DegradationLadder, StepsDownInOrderAndReenablesStepwise)
{
    DegradationConfig config;
    config.faultThreshold = 2;
    config.probationCycles = 100;
    DegradationLadder ladder(config);

    EXPECT_EQ(ladder.level(), DegradeLevel::kFull);
    EXPECT_TRUE(ladder.chainCacheAllowed());
    EXPECT_TRUE(ladder.bufferAllowed());
    EXPECT_TRUE(ladder.runaheadAllowed());

    const auto faults = [&](int n) {
        for (int i = 0; i < n; ++i) {
            ladder.tick();
            ladder.noteFault();
        }
    };

    faults(2);
    EXPECT_EQ(ladder.level(), DegradeLevel::kNoChainCache);
    EXPECT_FALSE(ladder.chainCacheAllowed());
    EXPECT_TRUE(ladder.bufferAllowed());

    faults(2);
    EXPECT_EQ(ladder.level(), DegradeLevel::kNoBuffer);
    EXPECT_FALSE(ladder.bufferAllowed());
    EXPECT_TRUE(ladder.runaheadAllowed());

    faults(2);
    EXPECT_EQ(ladder.level(), DegradeLevel::kNoRunahead);
    EXPECT_FALSE(ladder.runaheadAllowed());

    EXPECT_EQ(ladder.degradeSteps.value(), 3u);
    EXPECT_EQ(ladder.toNoChainCache.value(), 1u);
    EXPECT_EQ(ladder.toNoBuffer.value(), 1u);
    EXPECT_EQ(ladder.toNoRunahead.value(), 1u);
    EXPECT_EQ(ladder.faultsObserved.value(), 6u);

    // One clean probation window per re-enable step.
    for (int i = 0; i < 101; ++i)
        ladder.tick();
    EXPECT_EQ(ladder.level(), DegradeLevel::kNoBuffer);
    for (int i = 0; i < 101; ++i)
        ladder.tick();
    EXPECT_EQ(ladder.level(), DegradeLevel::kNoChainCache);
    for (int i = 0; i < 101; ++i)
        ladder.tick();
    EXPECT_EQ(ladder.level(), DegradeLevel::kFull);
    EXPECT_TRUE(ladder.chainCacheAllowed());
    EXPECT_EQ(ladder.reenableSteps.value(), 3u);

    // A fault during probation restarts the clean window.
    faults(2);
    EXPECT_EQ(ladder.level(), DegradeLevel::kNoChainCache);
    for (int i = 0; i < 50; ++i)
        ladder.tick();
    ladder.noteFault();
    for (int i = 0; i < 60; ++i)
        ladder.tick();
    EXPECT_EQ(ladder.level(), DegradeLevel::kNoChainCache);
}

TEST(DegradationLadder, DisabledLadderNeverDegrades)
{
    DegradationConfig config;
    config.enabled = false;
    config.faultThreshold = 1;
    DegradationLadder ladder(config);
    for (int i = 0; i < 10; ++i)
        ladder.noteFault();
    EXPECT_EQ(ladder.level(), DegradeLevel::kFull);
}

// ---------------------------------------------------------------------
// Forward-progress watchdog
// ---------------------------------------------------------------------

TEST(Watchdog, DisabledByDefault)
{
    ForwardProgressWatchdog wd(WatchdogConfig{});
    EXPECT_FALSE(wd.enabled());
    EXPECT_FALSE(wd.shouldRecover(1'000'000, 0, 0, ""));
}

TEST(Watchdog, GrantsRecoveriesAndResetsOnProgress)
{
    WatchdogConfig config;
    config.cycles = 100;
    config.giveUpAfter = 3;
    ForwardProgressWatchdog wd(config);

    EXPECT_FALSE(wd.shouldRecover(100, 0, 0, "")); // at the bound
    EXPECT_TRUE(wd.shouldRecover(101, 0, 0, ""));  // past it
    EXPECT_EQ(wd.fires.value(), 1u);
    EXPECT_EQ(wd.recoveries.value(), 1u);

    // Retirement happened since the last fire: consecutive resets.
    EXPECT_TRUE(wd.shouldRecover(300, 150, 10, ""));
    EXPECT_EQ(wd.consecutiveFires(), 1);
    EXPECT_TRUE(wd.shouldRecover(500, 350, 20, ""));
    EXPECT_EQ(wd.consecutiveFires(), 1);
}

TEST(Watchdog, GivesUpAfterConsecutiveFiresWithoutProgress)
{
    WatchdogConfig config;
    config.cycles = 100;
    config.giveUpAfter = 2;
    ForwardProgressWatchdog wd(config);

    EXPECT_TRUE(wd.shouldRecover(101, 0, 5, ""));
    EXPECT_TRUE(wd.shouldRecover(202, 101, 5, ""));
    EXPECT_THROW(wd.shouldRecover(303, 202, 5, "state"),
                 WatchdogTimeout);
}

TEST(Watchdog, HonoursTotalRecoveryBudget)
{
    WatchdogConfig config;
    config.cycles = 100;
    config.giveUpAfter = 100; // consecutive never trips
    config.maxRecoveries = 2;
    ForwardProgressWatchdog wd(config);

    EXPECT_TRUE(wd.shouldRecover(101, 0, 1, ""));
    EXPECT_TRUE(wd.shouldRecover(300, 150, 2, ""));
    EXPECT_THROW(wd.shouldRecover(500, 350, 3, ""), WatchdogTimeout);
}

// ---------------------------------------------------------------------
// Full-system containment: the headline differential guarantee
// ---------------------------------------------------------------------

struct Commit
{
    Pc pc;
    std::uint64_t result;
    Addr addr;

    bool operator==(const Commit &o) const
    {
        return pc == o.pc && result == o.result && addr == o.addr;
    }
};

std::vector<Commit>
runTrace(SimConfig config, const std::string &workload,
         std::uint64_t instructions)
{
    config.warmupInstructions = 0;
    config.instructions = instructions;
    Simulation sim(config, buildSuiteWorkload(workload));
    std::vector<Commit> trace;
    sim.core().setCommitHook([&](const DynUop &uop) {
        trace.push_back(Commit{
            uop.pc,
            uop.sop.hasDest() || uop.isStore() ? uop.result : 0,
            uop.sop.isMem() ? uop.effAddr : kNoAddr});
    });
    sim.run();
    // The final cycle may overshoot the target by up to commit width,
    // and by a different amount in differently-timed runs.
    trace.resize(std::min<std::size_t>(trace.size(), instructions));
    return trace;
}

constexpr RunaheadConfig kAllConfigs[] = {
    RunaheadConfig::kBaseline,         RunaheadConfig::kRunahead,
    RunaheadConfig::kRunaheadEnhanced, RunaheadConfig::kRunaheadBuffer,
    RunaheadConfig::kRunaheadBufferCC, RunaheadConfig::kHybrid,
};

TEST(FaultContainment, SpeculativeFaultsPreserveArchitecturalResults)
{
    constexpr std::uint64_t kInstructions = 3'000;
    for (const RunaheadConfig rc : kAllConfigs) {
        const std::vector<Commit> clean =
            runTrace(makeConfig(rc, false), "mcf", kInstructions);

        SimConfig faulty = makeConfig(rc, false);
        faulty.checkPolicy = CheckPolicy::kDegrade;
        faulty.fault.enabled = true;
        faulty.fault.seed = 7;
        faulty.fault.chainCacheRate = 0.05;  // speculative-only faults
        faulty.fault.bufferUopRate = 0.05;
        faulty.finalize();
        const std::vector<Commit> dirty =
            runTrace(faulty, "mcf", kInstructions);

        ASSERT_EQ(clean.size(), dirty.size())
            << runaheadConfigName(rc);
        for (std::size_t i = 0; i < clean.size(); ++i) {
            ASSERT_TRUE(clean[i] == dirty[i])
                << runaheadConfigName(rc) << " uop " << i << " pc "
                << clean[i].pc;
        }
    }
}

TEST(FaultContainment, MemoryFaultsPreserveArchitecturalResults)
{
    // DRAM drops/delays and queue stalls change timing only; the
    // bounded-retry layer and the core's replay keep values identical.
    constexpr std::uint64_t kInstructions = 2'000;
    const std::vector<Commit> clean = runTrace(
        makeConfig(RunaheadConfig::kHybrid, false), "mcf", kInstructions);

    SimConfig faulty = makeConfig(RunaheadConfig::kHybrid, false);
    faulty.checkPolicy = CheckPolicy::kDegrade;
    faulty.fault.enabled = true;
    faulty.fault.seed = 11;
    faulty.fault.dramDropRate = 0.3;
    faulty.fault.dramDelayRate = 0.1;
    faulty.fault.memStallRate = 0.01;
    faulty.finalize();
    faulty.warmupInstructions = 0;
    faulty.instructions = kInstructions;

    // Built inline (not via runTrace) so the retry statistics can be
    // asserted afterwards.
    Simulation run(faulty, buildSuiteWorkload("mcf"));
    std::vector<Commit> faulted;
    run.core().setCommitHook([&](const DynUop &uop) {
        faulted.push_back(Commit{
            uop.pc,
            uop.sop.hasDest() || uop.isStore() ? uop.result : 0,
            uop.sop.isMem() ? uop.effAddr : kNoAddr});
    });
    run.run();
    faulted.resize(std::min<std::size_t>(faulted.size(), kInstructions));

    ASSERT_EQ(clean.size(), faulted.size());
    for (std::size_t i = 0; i < clean.size(); ++i) {
        ASSERT_TRUE(clean[i] == faulted[i])
            << "uop " << i << " pc " << clean[i].pc;
    }

    // The fault campaign actually exercised the retry machinery.
    EXPECT_GT(run.faults()->dramDrops.value(), 0u);
    EXPECT_GT(run.memory().memTimeouts.value(), 0u);
    EXPECT_GT(run.memory().memRetries.value(), 0u);
}

TEST(FaultContainment, DegradationLadderEngagesUnderSustainedFaults)
{
    SimConfig config = makeConfig(RunaheadConfig::kRunaheadBufferCC,
                                  false);
    config.checkPolicy = CheckPolicy::kDegrade;
    config.fault.enabled = true;
    config.fault.seed = 3;
    config.fault.chainCacheRate = 1.0; // corrupt on every opportunity
    config.core.runahead.degrade.faultThreshold = 1;
    config.core.runahead.degrade.probationCycles = 100'000'000;
    // Only the invariant checker detects a corrupt cached chain and
    // routes it to the ladder; at kOff (the default) nothing would.
    config.checkLevel = CheckLevel::kCheap;
    config.finalize();
    config.warmupInstructions = 0;
    config.instructions = 5'000;

    Simulation sim(config, buildSuiteWorkload("mcf"));
    sim.run();

    const RunaheadController &ra = sim.core().runahead();
    EXPECT_GT(ra.speculativeFaults.value(), 0u);
    EXPECT_GT(ra.ladder().degradeSteps.value(), 0u);
    EXPECT_GE(static_cast<int>(ra.ladder().level()),
              static_cast<int>(DegradeLevel::kNoChainCache));
    EXPECT_GT(sim.core().checker().violationsRouted.value(), 0u);
}

TEST(FaultContainment, WatchdogGivesUpWhenEveryResponseDrops)
{
    SimConfig config = makeConfig(RunaheadConfig::kHybrid, false);
    config.checkPolicy = CheckPolicy::kDegrade;
    config.fault.enabled = true;
    config.fault.dramDropRate = 1.0; // nothing ever completes
    config.core.watchdog.cycles = 5'000;
    config.finalize();
    config.warmupInstructions = 0;
    config.instructions = 10'000;

    Simulation sim(config, buildSuiteWorkload("mcf"));
    EXPECT_THROW(sim.run(), WatchdogTimeout);
    EXPECT_GT(sim.core().watchdog().fires.value(), 0u);
}

TEST(FaultContainment, QueueStallWindowsAreCountedAndSurvived)
{
    SimConfig config = makeConfig(RunaheadConfig::kHybrid, false);
    config.checkPolicy = CheckPolicy::kDegrade;
    config.fault.enabled = true;
    config.fault.seed = 5;
    config.fault.memStallRate = 0.05;
    config.fault.memStallCycles = 100;
    config.finalize();
    config.warmupInstructions = 0;
    config.instructions = 3'000;

    Simulation sim(config, buildSuiteWorkload("mcf"));
    const SimResult result = sim.run();

    EXPECT_EQ(result.instructions, 3'000u);
    EXPECT_GT(sim.faults()->memStallWindows.value(), 0u);
    EXPECT_GT(sim.memory().queueFaultStalls.value(), 0u);
    EXPECT_GT(sim.core().loadQueueRetries.value()
                  + sim.core().storeQueueRetries.value(),
              0u);
}

} // namespace
} // namespace rab
