/**
 * @file
 * Fast-forward certification: the cycle-loop fast-forward engine
 * (Core::fastForwardHorizon / fastForwardTo) must be invisible in
 * every architectural and statistical observable. For all eight
 * runahead configurations, the Continuous Runahead engine's two
 * included — and again under speculative fault injection — a
 * fast-forwarded run must produce a byte-identical
 * commit stream, identical cycle count, and an identical full
 * statistics payload (core + memory) compared to ticking every cycle.
 * Only the core.fastforward.* counters themselves may differ.
 *
 * Runs execute with the invariant checker at full strength, which
 * independently re-derives the quiescence conditions at every skipped
 * window (InvariantChecker::onFastForward), so a pass also certifies
 * the legality invariant, not just end-state equality.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

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
    RunaheadConfig::kCRE,              RunaheadConfig::kCREHybrid,
};

/** Everything a differential pair compares. */
struct RunCapture
{
    std::vector<RefCommit> trace;
    std::map<std::string, double> stats;
    std::uint64_t cycles = 0;
    std::uint64_t ffWindows = 0;
    std::uint64_t ffSkipped = 0;
};

RunCapture
runOne(RunaheadConfig rc, bool fast_forward, bool faulted)
{
    SimConfig config = makeConfig(rc, /*prefetch=*/false);
    config.warmupInstructions = 2'000;
    config.instructions = 15'000;
    config.checkLevel = CheckLevel::kFull;
    config.fastForward = fast_forward;
    if (faulted) {
        // Speculative-only faults with the checker routing violations
        // to the degradation ladder: the stress case for the entry
        // memoisation and ladder-aware horizon caps.
        config.checkPolicy = CheckPolicy::kDegrade;
        config.fault.enabled = true;
        config.fault.seed = 7;
        config.fault.chainCacheRate = 0.1;
        config.fault.bufferUopRate = 0.1;
    }
    config.finalize();

    Simulation sim(config, buildSuiteWorkload("mcf"));
    RunCapture cap;
    sim.core().setCommitHook([&](const DynUop &uop) {
        RefCommit c;
        c.pc = uop.pc;
        c.result = uop.sop.hasDest() || uop.isStore() ? uop.result : 0;
        c.addr = uop.sop.isMem() ? uop.effAddr : kNoAddr;
        c.taken = uop.isControl() && uop.actualTaken;
        cap.trace.push_back(c);
    });
    const SimResult result = sim.run();
    cap.cycles = result.cycles;

    cap.stats = sim.core().stats().collect();
    const std::map<std::string, double> mem = sim.memory().stats().collect();
    cap.stats.insert(mem.begin(), mem.end());
    // The engine's own window counters are the one legitimate
    // difference between the two runs: pull them out of the payload
    // before comparing, but keep them for the did-it-engage asserts.
    for (auto it = cap.stats.begin(); it != cap.stats.end();) {
        if (it->first.rfind("core.fastforward.", 0) == 0) {
            if (it->first == "core.fastforward.windows")
                cap.ffWindows = static_cast<std::uint64_t>(it->second);
            if (it->first == "core.fastforward.skipped_cycles")
                cap.ffSkipped = static_cast<std::uint64_t>(it->second);
            it = cap.stats.erase(it);
        } else {
            ++it;
        }
    }
    return cap;
}

void
expectIdentical(const RunCapture &ff, const RunCapture &tick,
                RunaheadConfig rc)
{
    const char *name = runaheadConfigName(rc);
    ASSERT_EQ(ff.cycles, tick.cycles) << name;

    ASSERT_EQ(ff.trace.size(), tick.trace.size()) << name;
    for (std::size_t i = 0; i < ff.trace.size(); ++i) {
        ASSERT_EQ(ff.trace[i].pc, tick.trace[i].pc)
            << name << " uop " << i;
        ASSERT_EQ(ff.trace[i].result, tick.trace[i].result)
            << name << " uop " << i << " pc " << ff.trace[i].pc;
        ASSERT_EQ(ff.trace[i].addr, tick.trace[i].addr)
            << name << " uop " << i;
        ASSERT_EQ(ff.trace[i].taken, tick.trace[i].taken)
            << name << " uop " << i;
    }

    ASSERT_EQ(ff.stats.size(), tick.stats.size()) << name;
    for (const auto &[key, value] : tick.stats) {
        const auto it = ff.stats.find(key);
        ASSERT_TRUE(it != ff.stats.end()) << name << " missing " << key;
        EXPECT_EQ(it->second, value) << name << " stat " << key;
    }
}

TEST(FastForward, AllConfigsMatchTickByTick)
{
    std::uint64_t total_skipped = 0;
    for (const RunaheadConfig rc : kAllConfigs) {
        const RunCapture ff = runOne(rc, true, false);
        const RunCapture tick = runOne(rc, false, false);
        EXPECT_EQ(tick.ffWindows, 0u) << runaheadConfigName(rc);
        EXPECT_EQ(tick.ffSkipped, 0u) << runaheadConfigName(rc);
        expectIdentical(ff, tick, rc);
        total_skipped += ff.ffSkipped;
    }
    // The engine must actually have engaged somewhere (mcf is
    // memory-bound; the baseline config alone skips the majority of
    // its cycles), or this whole test proves nothing.
    EXPECT_GT(total_skipped, 0u);
}

TEST(FastForward, AllConfigsMatchTickByTickUnderFaults)
{
    std::uint64_t total_skipped = 0;
    for (const RunaheadConfig rc : kAllConfigs) {
        const RunCapture ff = runOne(rc, true, true);
        const RunCapture tick = runOne(rc, false, true);
        expectIdentical(ff, tick, rc);
        total_skipped += ff.ffSkipped;
    }
    EXPECT_GT(total_skipped, 0u);
}

} // namespace
} // namespace rab
