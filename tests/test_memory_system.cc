/**
 * @file
 * Unit tests: composed memory hierarchy (L1 + LLC + queue + DRAM).
 */

#include <gtest/gtest.h>

#include "memory/memory_system.hh"

namespace rab
{
namespace
{

MemSysConfig
config()
{
    return MemSysConfig{};
}

/** A one-core chip: the hierarchy behind every single-core run. */
struct OneCore
{
    explicit OneCore(const MemSysConfig &cfg)
        : shared(cfg, 1), mem(cfg, shared, 0)
    {
    }

    SharedMemory shared;
    MemorySystem mem;
};

TEST(MemorySystem, L1HitLatency)
{
    OneCore chip(config());
    MemorySystem &mem = chip.mem;
    const AccessResult miss = mem.access(AccessType::kLoad, 0x1000, 0);
    EXPECT_TRUE(miss.l1Miss);
    EXPECT_TRUE(miss.llcMiss);
    // After the fill completes, the line hits in L1 at L1 latency.
    const Cycle later = miss.readyCycle + 1;
    const AccessResult hit =
        mem.access(AccessType::kLoad, 0x1000, later);
    EXPECT_FALSE(hit.l1Miss);
    EXPECT_EQ(hit.readyCycle,
              later + mem.config().l1d.latency);
}

TEST(MemorySystem, LlcHitAfterL1Eviction)
{
    OneCore chip(config());
    MemorySystem &mem = chip.mem;
    const AccessResult first = mem.access(AccessType::kLoad, 0x0, 0);
    const Cycle t = first.readyCycle + 1;
    // Evict line 0 from the 32 KB 8-way L1 by filling its set: L1 set
    // stride is 4 KB.
    Cycle now = t;
    for (int i = 1; i <= 8; ++i) {
        const AccessResult r = mem.access(
            AccessType::kLoad, static_cast<Addr>(i) * 4096, now);
        now = std::max(now, r.readyCycle) + 1;
    }
    const AccessResult back = mem.access(AccessType::kLoad, 0x0, now);
    EXPECT_TRUE(back.l1Miss);
    EXPECT_FALSE(back.llcMiss); // still resident in the inclusive LLC
    EXPECT_EQ(back.readyCycle, now + mem.config().l1d.latency
                                   + mem.config().llc.latency);
}

TEST(MemorySystem, MshrMergeSharesInFlightFill)
{
    OneCore chip(config());
    MemorySystem &mem = chip.mem;
    const AccessResult a = mem.access(AccessType::kLoad, 0x2000, 0);
    ASSERT_TRUE(a.llcMiss);
    const AccessResult b = mem.access(AccessType::kLoad, 0x2008, 1);
    EXPECT_FALSE(b.llcMiss);       // merged, not a new miss
    EXPECT_TRUE(b.pendingMiss);    // but it waits on one
    EXPECT_EQ(b.readyCycle, a.readyCycle);
    EXPECT_EQ(mem.dram().reads.value(), 1u);
}

TEST(MemorySystem, MemQueueLimitRejects)
{
    MemSysConfig cfg = config();
    cfg.memQueueEntries = 4;
    OneCore chip(cfg);
    MemorySystem &mem = chip.mem;
    int accepted = 0;
    int rejected = 0;
    for (int i = 0; i < 8; ++i) {
        const AccessResult r = mem.access(
            AccessType::kLoad, static_cast<Addr>(i) * 64, 0);
        (r.rejected ? rejected : accepted)++;
    }
    EXPECT_EQ(accepted, 4);
    EXPECT_EQ(rejected, 4);
    EXPECT_EQ(mem.queueRejects.value(), 4u);
}

TEST(MemorySystem, RunaheadReservationLeavesDemandRoom)
{
    MemSysConfig cfg = config();
    cfg.memQueueEntries = 8;
    cfg.runaheadQueueReserve = 4;
    OneCore chip(cfg);
    MemorySystem &mem = chip.mem;
    // Runahead may take only 4 of the 8 slots.
    int accepted = 0;
    for (int i = 0; i < 8; ++i) {
        if (!mem.access(AccessType::kLoad, static_cast<Addr>(i) * 64, 0,
                        /*runahead=*/true)
                 .rejected) {
            ++accepted;
        }
    }
    EXPECT_EQ(accepted, 4);
    // Demand can still use the rest.
    EXPECT_FALSE(mem.access(AccessType::kLoad, 0x9000, 0).rejected);
}

TEST(MemorySystem, OutstandingMissesDrain)
{
    OneCore chip(config());
    MemorySystem &mem = chip.mem;
    const AccessResult r = mem.access(AccessType::kLoad, 0x3000, 0);
    EXPECT_EQ(mem.outstandingMisses(1), 1u);
    EXPECT_EQ(mem.outstandingMisses(r.readyCycle), 0u);
}

TEST(MemorySystem, DataOnChipTracksFill)
{
    OneCore chip(config());
    MemorySystem &mem = chip.mem;
    EXPECT_FALSE(mem.dataOnChip(0x4000, 0));
    const AccessResult r = mem.access(AccessType::kLoad, 0x4000, 0);
    EXPECT_FALSE(mem.dataOnChip(0x4000, 1)); // fill in flight
    EXPECT_TRUE(mem.missInFlight(0x4000, 1));
    EXPECT_TRUE(mem.dataOnChip(0x4000, r.readyCycle));
}

TEST(MemorySystem, StoreMissCountsAsDemandMiss)
{
    OneCore chip(config());
    MemorySystem &mem = chip.mem;
    mem.access(AccessType::kStore, 0x5000, 0);
    EXPECT_EQ(mem.llcDemandMisses.value(), 1u);
    EXPECT_EQ(mem.llcLoadMisses.value(), 0u);
    EXPECT_EQ(mem.demandStores.value(), 1u);
}

TEST(MemorySystem, DirtyLlcEvictionWritesBack)
{
    OneCore chip(config());
    MemorySystem &mem = chip.mem;
    // Dirty a line, then stream enough lines through its LLC set to
    // evict it. LLC: 1 MB 8-way, 2048 sets -> set stride 128 KB.
    Cycle now = 0;
    const AccessResult w = mem.access(AccessType::kStore, 0x0, now);
    now = w.readyCycle + 1;
    for (int i = 1; i <= 8; ++i) {
        const AccessResult r = mem.access(
            AccessType::kLoad, static_cast<Addr>(i) * 128 * 1024, now);
        now = r.readyCycle + 1;
    }
    EXPECT_GE(mem.dram().writes.value(), 1u);
    // Inclusive: the dirty line must also be gone from the L1.
    const AccessResult back = mem.access(AccessType::kLoad, 0x0, now);
    EXPECT_TRUE(back.llcMiss);
}

TEST(MemorySystem, PrefetcherFillsAhead)
{
    MemSysConfig cfg = config();
    cfg.prefetcher.enabled = true;
    OneCore chip(cfg);
    MemorySystem &mem = chip.mem;
    // A clean ascending stream of demand misses trains the prefetcher.
    Cycle now = 0;
    for (int i = 0; i < 12; ++i) {
        const AccessResult r = mem.access(
            AccessType::kLoad, static_cast<Addr>(i) * 64, now);
        now = std::max(now + 1, r.readyCycle);
    }
    EXPECT_GT(mem.prefetchesIssued.value(), 0u);
    // Lines ahead of the stream should now be resident or in flight.
    EXPECT_TRUE(mem.llc().probe(13 * 64) || mem.missInFlight(13 * 64, now));

    // Line 12's prefetch is still filling: the line is tagged in the
    // LLC but its data is not on chip yet, so a demand load to it
    // merges into the fill instead of hitting at LLC latency.
    const Addr line12 = 12 * 64;
    EXPECT_FALSE(mem.dataOnChip(line12, now));
    EXPECT_TRUE(mem.missInFlight(line12, now));
    const std::uint64_t merges = mem.mshrMerges.value();
    const AccessResult demand = mem.access(AccessType::kLoad, line12, now);
    EXPECT_EQ(mem.mshrMerges.value(), merges + 1);
    EXPECT_GT(demand.readyCycle, now + cfg.l1d.latency + cfg.llc.latency);
}

} // namespace
} // namespace rab
