/**
 * @file
 * Unit tests: composed memory hierarchy (L1 + LLC + queue + DRAM).
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.hh"
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

/**
 * Test-local reference for one L1's fill table: every fill the L1
 * ever received, never dropped, and the rule access() applies on an
 * L1 tag hit — a fill still in flight at `now` is an MSHR merge that
 * waits for it, anything else hits at L1 latency.
 */
struct NeverPrunedFills
{
    std::unordered_map<Addr, Cycle> fills;
    std::uint64_t tagHits = 0;
    std::uint64_t tagMisses = 0;
};

TEST(MemorySystem, ExpiredL1FillsAreDead)
{
    // One random stream two ways: the chip's L1 tables drop fills
    // whose cycle has passed, the reference keeps them all. Every
    // L1 tag hit must come out as the reference predicts, result and
    // merge count alike; an L1 miss goes to the LLC, which neither
    // table is part of. Steps are mostly short (merges into fills in
    // flight) with jumps past whole fills; 96 KB of data lines
    // overflow the 32 KB L1D but not the LLC.
    MemSysConfig cfg = config();
    cfg.prefetcher.enabled = true;
    OneCore chip(cfg);
    MemorySystem &mem = chip.mem;
    NeverPrunedFills ref_i;
    NeverPrunedFills ref_d;
    Rng rng(25);
    Cycle now = 0;
    std::uint64_t merges = 0;
    Addr recent[8] = {};
    for (int i = 0; i < 200'000; ++i) {
        now += rng.chance(0.05) ? rng.range(400) : rng.range(3);
        AccessType type = AccessType::kLoad;
        if (rng.chance(0.1))
            type = AccessType::kInstFetch;
        else if (rng.chance(0.3))
            type = AccessType::kStore;
        const bool fetch = type == AccessType::kInstFetch;
        // Half the data accesses revisit one of the last eight lines.
        Addr &slot = recent[rng.range(8)];
        if (!fetch && (slot == 0 || rng.chance(0.5)))
            slot = 0x10000000 + rng.range(1536) * 64;
        const Addr addr = fetch ? 0x400000 + rng.range(256) * 64
                                : slot + rng.range(8) * 8;
        Cache &l1 = fetch ? mem.l1i() : mem.l1d();
        NeverPrunedFills &ref = fetch ? ref_i : ref_d;
        const Addr line = l1.lineAddr(addr);

        const bool tag_hit = l1.probe(addr);
        const bool llc_in_flight = mem.missInFlight(addr, now);
        const std::uint64_t merges_before = mem.mshrMerges.value();
        const AccessResult got = mem.access(type, addr, now);
        if (!tag_hit) {
            ++ref.tagMisses;
            ASSERT_TRUE(got.l1Miss) << "access " << i;
            merges += mem.mshrMerges.value() - merges_before;
            if (!got.rejected)
                ref.fills[line] = got.readyCycle;
            continue;
        }
        ++ref.tagHits;
        AccessResult want;
        const auto it = ref.fills.find(line);
        if (it != ref.fills.end() && it->second > now) {
            want.l1Miss = true;
            want.readyCycle = it->second;
            want.pendingMiss = llc_in_flight;
            ++merges;
        } else {
            want.readyCycle = now + l1.config().latency;
        }
        ASSERT_EQ(got.l1Miss, want.l1Miss) << "access " << i;
        ASSERT_EQ(got.readyCycle, want.readyCycle) << "access " << i;
        ASSERT_EQ(got.pendingMiss, want.pendingMiss) << "access " << i;
        ASSERT_FALSE(got.rejected) << "access " << i;
        ASSERT_FALSE(got.llcMiss) << "access " << i;
        ASSERT_EQ(mem.mshrMerges.value(), merges) << "access " << i;
    }
    EXPECT_EQ(mem.mshrMerges.value(), merges);
    EXPECT_EQ(mem.l1i().hits.value(), ref_i.tagHits);
    EXPECT_EQ(mem.l1i().misses.value(), ref_i.tagMisses);
    EXPECT_EQ(mem.l1d().hits.value(), ref_d.tagHits);
    EXPECT_EQ(mem.l1d().misses.value(), ref_d.tagMisses);
    // The stream exercised both sides of the rule.
    EXPECT_GT(mem.mshrMerges.value(), 1'000u);
    EXPECT_GT(ref_d.tagHits, 10'000u);
    EXPECT_GT(ref_d.fills.size(), 1'000u);
}

} // namespace
} // namespace rab
