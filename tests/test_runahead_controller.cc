/**
 * @file
 * Unit tests: runahead controller policies — presets, entry decisions
 * (Fig. 8 flow), enhancement suppressions, interval bookkeeping.
 */

#include <gtest/gtest.h>

#include "backend/lsq.hh"
#include "backend/rob.hh"
#include "runahead/runahead_controller.hh"

namespace rab
{
namespace
{

DynUop
mk(SeqNum seq, Pc pc, Opcode op, ArchReg dest, ArchReg src1,
   ArchReg src2 = kNoArchReg)
{
    DynUop u;
    u.seq = seq;
    u.pc = pc;
    u.sop.op = op;
    u.sop.dest = dest;
    u.sop.src1 = src1;
    u.sop.src2 = src2;
    return u;
}

/** ROB with two instances of a 4-uop gather iteration; blocking load at
 *  seq 4, pc 3. */
struct ControllerFixture : ::testing::Test
{
    ControllerFixture() : rob(64), sq(8)
    {
        pushIteration(1);
        pushIteration(10);
        head = &rob.head();
        while (!head->isLoad())
            head = &rob.slot(rob.logicalToSlot(3));
        head->memIssued = true;
        head->llcMiss = true;
        head->offChipWait = true;
        head->missIssueInstrNum = 100;
    }

    void
    pushIteration(SeqNum base)
    {
        rob.push(mk(base + 0, 0, Opcode::kIntAlu, 1, 1));
        rob.push(mk(base + 1, 1, Opcode::kIntAlu, 2, 1, 1));
        rob.push(mk(base + 2, 2, Opcode::kIntAlu, 3, 10, 2));
        rob.push(mk(base + 3, 3, Opcode::kLoad, 4, 3));
    }

    Rob rob;
    StoreQueue sq;
    DynUop *head = nullptr;
};

TEST(Policies, PresetsMatchPaperConfigurations)
{
    EXPECT_FALSE(policyNone().anyRunahead());
    EXPECT_TRUE(policyTraditional().traditionalEnabled);
    EXPECT_FALSE(policyTraditional().enhancements);
    EXPECT_TRUE(policyTraditionalEnhanced().enhancements);
    EXPECT_TRUE(policyBuffer().bufferEnabled);
    EXPECT_FALSE(policyBuffer().chainCacheEnabled);
    EXPECT_TRUE(policyBufferChainCache().chainCacheEnabled);
    const RunaheadPolicy hybrid = policyHybrid();
    EXPECT_TRUE(hybrid.traditionalEnabled && hybrid.bufferEnabled
                && hybrid.chainCacheEnabled && hybrid.hybrid
                && hybrid.enhancements);
    EXPECT_EQ(hybrid.chainGen.maxChainLength, 32);
    EXPECT_EQ(hybrid.chainCacheEntries, 2);
    EXPECT_EQ(hybrid.distanceThreshold, 250u);
}

TEST_F(ControllerFixture, DisabledPolicyNeverEnters)
{
    RunaheadController ctrl(policyNone());
    const EntryDecision d = ctrl.decideEntry(rob, sq, *head, 200, 50);
    EXPECT_FALSE(d.enter);
}

TEST_F(ControllerFixture, TraditionalAlwaysEnters)
{
    RunaheadController ctrl(policyTraditional());
    const EntryDecision d = ctrl.decideEntry(rob, sq, *head, 200, 50);
    EXPECT_TRUE(d.enter);
    EXPECT_EQ(d.mode, RunaheadMode::kTraditional);
}

TEST_F(ControllerFixture, BufferEntersWithChain)
{
    RunaheadController ctrl(policyBuffer());
    const EntryDecision d = ctrl.decideEntry(rob, sq, *head, 200, 50);
    ASSERT_TRUE(d.enter);
    EXPECT_EQ(d.mode, RunaheadMode::kBuffer);
    EXPECT_FALSE(d.usedCachedChain);
    EXPECT_GE(d.chain.size(), 4u);
    EXPECT_GT(d.generationCycles, 1);
}

TEST_F(ControllerFixture, BufferSkipsWithoutPcMatch)
{
    // Retire the younger instance so no second instance of pc 3 exists.
    Rob lone(64);
    lone.push(mk(1, 0, Opcode::kIntAlu, 1, 1));
    DynUop blocking = mk(2, 3, Opcode::kLoad, 4, 3);
    blocking.memIssued = blocking.llcMiss = blocking.offChipWait = true;
    lone.push(std::move(blocking));

    RunaheadController ctrl(policyBuffer());
    const EntryDecision d =
        ctrl.decideEntry(lone, sq, lone.slot(lone.tailSlot()), 200, 50);
    EXPECT_FALSE(d.enter);
    EXPECT_EQ(ctrl.noChainNoEntry.value(), 1u);
}

TEST_F(ControllerFixture, HybridFallsBackWithoutPcMatch)
{
    Rob lone(64);
    lone.push(mk(1, 0, Opcode::kIntAlu, 1, 1));
    DynUop blocking = mk(2, 3, Opcode::kLoad, 4, 3);
    blocking.memIssued = blocking.llcMiss = blocking.offChipWait = true;
    blocking.missIssueInstrNum = 100;
    lone.push(std::move(blocking));

    RunaheadPolicy policy = policyHybrid();
    policy.enhancements = false;
    RunaheadController ctrl(policy);
    const EntryDecision d =
        ctrl.decideEntry(lone, sq, lone.slot(lone.tailSlot()), 200, 50);
    ASSERT_TRUE(d.enter);
    EXPECT_EQ(d.mode, RunaheadMode::kTraditional);
}

TEST_F(ControllerFixture, HybridFallsBackOnOverlongChain)
{
    RunaheadPolicy policy = policyHybrid();
    policy.enhancements = false;
    policy.chainCacheEnabled = false;
    policy.chainGen.maxChainLength = 2; // every chain overflows
    RunaheadController ctrl(policy);
    const EntryDecision d = ctrl.decideEntry(rob, sq, *head, 200, 50);
    ASSERT_TRUE(d.enter);
    EXPECT_EQ(d.mode, RunaheadMode::kTraditional);
}

TEST_F(ControllerFixture, ChainCacheHitSkipsGeneration)
{
    RunaheadController ctrl(policyBufferChainCache());
    const EntryDecision first = ctrl.decideEntry(rob, sq, *head, 200, 50);
    ASSERT_TRUE(first.enter);
    EXPECT_FALSE(first.usedCachedChain);
    ctrl.enter(first, 0, 100, 50);
    ctrl.exit(60);
    const EntryDecision second =
        ctrl.decideEntry(rob, sq, *head, 400, 80);
    ASSERT_TRUE(second.enter);
    EXPECT_TRUE(second.usedCachedChain);
    EXPECT_EQ(second.generationCycles, 1);
    EXPECT_TRUE(chainsEqual(first.chain, second.chain));
    EXPECT_GT(ctrl.chainCacheExactHits.value(), 0u);
}

TEST_F(ControllerFixture, Enhancement1SuppressesStaleMisses)
{
    RunaheadController ctrl(policyTraditionalEnhanced());
    // Miss issued at instruction 100; now at 100 + 250: too old.
    const EntryDecision d =
        ctrl.decideEntry(rob, sq, *head, /*fetched=*/350, /*retired=*/50);
    EXPECT_FALSE(d.enter);
    EXPECT_EQ(ctrl.suppressedShort.value(), 1u);
    // A fresh miss (issued 100 instructions ago) is allowed.
    const EntryDecision d2 = ctrl.decideEntry(rob, sq, *head, 200, 50);
    EXPECT_TRUE(d2.enter);
}

TEST_F(ControllerFixture, Enhancement2SuppressesOverlap)
{
    RunaheadController ctrl(policyTraditionalEnhanced());
    const EntryDecision d = ctrl.decideEntry(rob, sq, *head, 200, 50);
    ASSERT_TRUE(d.enter);
    ctrl.enter(d, 0, 100, /*retired=*/50);
    ctrl.exit(/*farthest=*/90); // covered up to instruction 90
    // Re-entry at retired=70 (< 90) overlaps the last interval.
    const EntryDecision d2 = ctrl.decideEntry(rob, sq, *head, 260, 70);
    EXPECT_FALSE(d2.enter);
    EXPECT_EQ(ctrl.suppressedOverlap.value(), 1u);
    // Past the covered point, entry is allowed again.
    const EntryDecision d3 = ctrl.decideEntry(rob, sq, *head, 260, 95);
    EXPECT_TRUE(d3.enter);
}

TEST_F(ControllerFixture, IntervalBookkeeping)
{
    RunaheadController ctrl(policyTraditional());
    const EntryDecision d = ctrl.decideEntry(rob, sq, *head, 200, 50);
    ctrl.enter(d, 10, 110, 50);
    EXPECT_TRUE(ctrl.inRunahead());
    EXPECT_EQ(ctrl.mode(), RunaheadMode::kTraditional);
    EXPECT_FALSE(ctrl.shouldExit(109));
    EXPECT_TRUE(ctrl.shouldExit(110));
    ctrl.noteRunaheadMiss();
    ctrl.noteRunaheadMiss();
    ctrl.tickCycle();
    ctrl.exit(60);
    EXPECT_FALSE(ctrl.inRunahead());
    EXPECT_EQ(ctrl.intervals.value(), 1u);
    EXPECT_DOUBLE_EQ(ctrl.missesPerInterval(), 2.0);
    EXPECT_EQ(ctrl.cyclesTraditional.value(), 1u);
    EXPECT_DOUBLE_EQ(ctrl.bufferCycleFraction(), 0.0);
}

TEST_F(ControllerFixture, BufferIssueDelayedByGeneration)
{
    RunaheadController ctrl(policyBuffer());
    const EntryDecision d = ctrl.decideEntry(rob, sq, *head, 200, 50);
    ASSERT_TRUE(d.enter);
    ctrl.enter(d, 10, 200, 50);
    EXPECT_EQ(ctrl.bufferIssueStart(),
              static_cast<Cycle>(10 + d.generationCycles));
    EXPECT_TRUE(ctrl.buffer().active());
    ctrl.exit(50);
    EXPECT_FALSE(ctrl.buffer().active());
}

TEST_F(ControllerFixture, RunaheadCacheClearedOnExit)
{
    RunaheadController ctrl(policyTraditional());
    const EntryDecision d = ctrl.decideEntry(rob, sq, *head, 200, 50);
    ctrl.enter(d, 0, 100, 50);
    ctrl.runaheadCache().write(0x100, 7);
    ctrl.exit(60);
    std::uint64_t data = 0;
    EXPECT_FALSE(ctrl.runaheadCache().read(0x100, data));
}

TEST_F(ControllerFixture, DoubleEnterPanics)
{
    RunaheadController ctrl(policyTraditional());
    const EntryDecision d = ctrl.decideEntry(rob, sq, *head, 200, 50);
    ctrl.enter(d, 0, 100, 50);
    EXPECT_DEATH(ctrl.enter(d, 1, 100, 50), "bad entry");
}

} // namespace
} // namespace rab
