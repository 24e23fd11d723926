/**
 * @file
 * Unit tests: fetch/decode front-end.
 */

#include <gtest/gtest.h>

#include "frontend/frontend.hh"
#include "isa/program.hh"
#include "memory/memory_system.hh"

namespace rab
{
namespace
{

Program
loopProgram()
{
    ProgramBuilder b("loop");
    auto top = b.label();
    b.addi(1, 1, 1);
    b.addi(2, 2, 1);
    b.addi(3, 3, 1);
    b.jump(top);
    return b.build();
}

struct FrontendFixture : ::testing::Test
{
    FrontendFixture()
        : program(loopProgram()), shared(MemSysConfig{}, 1),
          mem(MemSysConfig{}, shared, 0), bp(BranchPredictorConfig{}),
          fe(FrontendConfig{}, &program, &bp, &mem)
    {
    }

    /** Warm the I-cache so fetch is not stalled by cold misses. */
    void
    warm()
    {
        Cycle cycle = 0;
        while (fe.fetchedUops.value() < 8 && cycle < 2000)
            fe.tick(cycle++);
        fe.redirect(0, cycle);
        warmCycle = cycle;
    }

    Program program;
    SharedMemory shared;
    MemorySystem mem;
    BranchPredictor bp;
    Frontend fe;
    Cycle warmCycle = 0;
};

TEST_F(FrontendFixture, FetchStopsAtTakenControl)
{
    warm();
    const auto fetched_before = fe.fetchedUops.value();
    fe.tick(warmCycle);
    // The program is 4 uops with a taken jump at pc 3: a single cycle
    // fetches at most up to (and including) the jump.
    EXPECT_LE(fe.fetchedUops.value() - fetched_before, 4u);
    // Decode delay: nothing ready the same cycle.
    EXPECT_FALSE(fe.hasReady(warmCycle));
    const Cycle ready = warmCycle + 1 + FrontendConfig{}.decodeDepth;
    EXPECT_TRUE(fe.hasReady(ready));
}

TEST_F(FrontendFixture, PopsInProgramOrder)
{
    warm();
    for (Cycle c = warmCycle; c < warmCycle + 10; ++c)
        fe.tick(c);
    const Cycle now = warmCycle + 20;
    ASSERT_TRUE(fe.hasReady(now));
    EXPECT_EQ(fe.peek().pc, 0u);
    EXPECT_EQ(fe.pop().pc, 0u);
    EXPECT_EQ(fe.pop().pc, 1u);
    EXPECT_EQ(fe.pop().pc, 2u);
    EXPECT_EQ(fe.pop().pc, 3u); // the jump
    EXPECT_EQ(fe.pop().pc, 0u); // wrapped to loop top
}

TEST_F(FrontendFixture, RedirectClearsQueue)
{
    warm();
    for (Cycle c = warmCycle; c < warmCycle + 5; ++c)
        fe.tick(c);
    fe.redirect(2, warmCycle + 10);
    EXPECT_FALSE(fe.hasReady(warmCycle + 9));
    for (Cycle c = warmCycle + 10; c < warmCycle + 16; ++c)
        fe.tick(c);
    ASSERT_TRUE(fe.hasReady(warmCycle + 16));
    EXPECT_EQ(fe.peek().pc, 2u);
}

TEST_F(FrontendFixture, GatingStopsFetchAndCounts)
{
    warm();
    fe.setGated(true);
    const auto fetched = fe.fetchedUops.value();
    fe.tick(warmCycle);
    fe.tick(warmCycle + 1);
    EXPECT_EQ(fe.fetchedUops.value(), fetched);
    EXPECT_EQ(fe.gatedCycles.value(), 2u);
    fe.setGated(false);
    fe.tick(warmCycle + 2);
    EXPECT_GT(fe.fetchedUops.value(), fetched);
}

TEST_F(FrontendFixture, QueueCapacityBoundsFetch)
{
    warm();
    for (Cycle c = warmCycle; c < warmCycle + 200; ++c)
        fe.tick(c); // never popped
    std::size_t drained = 0;
    while (fe.hasReady(warmCycle + 400)) {
        fe.pop();
        ++drained;
    }
    EXPECT_LE(drained,
              static_cast<std::size_t>(FrontendConfig{}.fetchQueueEntries));
    EXPECT_GT(fe.idleCycles.value(), 0u); // queue-full cycles were idle
}

TEST(Frontend, EmptyProgramFatal)
{
    Program empty("empty");
    SharedMemory shared(MemSysConfig{}, 1);
    MemorySystem mem(MemSysConfig{}, shared, 0);
    BranchPredictor bp{BranchPredictorConfig{}};
    EXPECT_DEATH(Frontend(FrontendConfig{}, &empty, &bp, &mem),
                 "empty program");
}

} // namespace
} // namespace rab
