/**
 * @file
 * Unit + property tests: set-associative cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "memory/cache.hh"

namespace rab
{
namespace
{

CacheConfig
smallConfig()
{
    return CacheConfig{"t", 1024, 2, 64, 3}; // 8 sets x 2 ways
}

TEST(Cache, MissThenHit)
{
    Cache cache(smallConfig());
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    cache.insert(0x1000, false);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_EQ(cache.hits.value(), 1u);
    EXPECT_EQ(cache.misses.value(), 1u);
}

TEST(Cache, SubLineAddressesHitSameLine)
{
    Cache cache(smallConfig());
    cache.insert(0x1000, false);
    EXPECT_TRUE(cache.access(0x103f, false).hit);
    EXPECT_FALSE(cache.access(0x1040, false).hit);
}

TEST(Cache, LruEvictsOldest)
{
    Cache cache(smallConfig());
    // Three lines mapping to the same set (8 sets x 64B lines: set
    // stride is 512 bytes).
    cache.insert(0x0000, false);
    cache.insert(0x0200, false);
    cache.access(0x0000, false); // touch: 0x0200 becomes LRU
    const Eviction ev = cache.insert(0x0400, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 0x0200u);
    EXPECT_TRUE(cache.probe(0x0000));
    EXPECT_FALSE(cache.probe(0x0200));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache cache(smallConfig());
    cache.insert(0x0000, /*is_write=*/true);
    cache.insert(0x0200, false);
    const Eviction ev = cache.insert(0x0400, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 0x0000u);
    EXPECT_TRUE(ev.dirty);
}

TEST(Cache, WriteHitSetsDirty)
{
    Cache cache(smallConfig());
    cache.insert(0x0000, false);
    cache.access(0x0000, /*is_write=*/true);
    cache.insert(0x0200, false);
    const Eviction ev = cache.insert(0x0400, false);
    ASSERT_TRUE(ev.valid && ev.dirty);
}

TEST(Cache, InvalidateReturnsDirty)
{
    Cache cache(smallConfig());
    cache.insert(0x0000, true);
    EXPECT_TRUE(cache.invalidate(0x0000));
    EXPECT_FALSE(cache.probe(0x0000));
    EXPECT_FALSE(cache.invalidate(0x0000));
}

TEST(Cache, PrefetchBitClearedOnDemandHit)
{
    Cache cache(smallConfig());
    cache.insert(0x0000, false, /*is_prefetch=*/true);
    const CacheLookup first = cache.access(0x0000, false);
    EXPECT_TRUE(first.hit);
    EXPECT_TRUE(first.wasPrefetched);
    const CacheLookup second = cache.access(0x0000, false);
    EXPECT_FALSE(second.wasPrefetched);
}

TEST(Cache, UnusedPrefetchEvictionReported)
{
    Cache cache(smallConfig());
    cache.insert(0x0000, false, /*is_prefetch=*/true);
    cache.insert(0x0200, false);
    const Eviction ev = cache.insert(0x0400, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.prefetchUnused);
}

TEST(Cache, ReinsertResidentLineNoEviction)
{
    Cache cache(smallConfig());
    cache.insert(0x0000, false);
    const Eviction ev = cache.insert(0x0000, true);
    EXPECT_FALSE(ev.valid);
}

TEST(Cache, FlushEmptiesEverything)
{
    Cache cache(smallConfig());
    cache.insert(0x0000, true);
    cache.insert(0x1000, false);
    EXPECT_EQ(cache.occupancy(), 2u);
    cache.flush();
    EXPECT_EQ(cache.occupancy(), 0u);
    EXPECT_FALSE(cache.probe(0x0000));
}

TEST(Cache, WideSetsKeepTrueLru)
{
    // One 96-way set: two valid-mask words, the second partly used.
    // A reference list (most recent last) must name every victim and
    // its dirty bit.
    struct Ref
    {
        Addr line;
        bool dirty;
    };
    Cache cache(CacheConfig{"t", 96 * 64, 96, 64, 3});
    std::vector<Ref> lru;
    Rng rng(96);
    for (int i = 0; i < 20000; ++i) {
        const Addr line = rng.range(160) * 64;
        const bool write = rng.chance(0.3);
        auto it = std::find_if(lru.begin(), lru.end(),
                               [&](const Ref &r) { return r.line == line; });
        if (rng.chance(0.05)) {
            ASSERT_EQ(cache.invalidate(line),
                      it != lru.end() && it->dirty) << i;
            ASSERT_FALSE(cache.probe(line)) << i;
            if (it != lru.end())
                lru.erase(it);
            continue;
        }
        ASSERT_EQ(cache.access(line, write).hit, it != lru.end()) << i;
        if (it != lru.end()) {
            const Ref hit{line, it->dirty || write};
            lru.erase(it);
            lru.push_back(hit);
            continue;
        }
        const Eviction ev = cache.insert(line, write);
        ASSERT_EQ(ev.valid, lru.size() == 96) << i;
        if (ev.valid) {
            ASSERT_EQ(ev.lineAddr, lru.front().line) << i;
            ASSERT_EQ(ev.dirty, lru.front().dirty) << i;
            lru.erase(lru.begin());
        }
        lru.push_back(Ref{line, write});
    }
    EXPECT_EQ(cache.occupancy(), lru.size());
    std::vector<Addr> resident = cache.validLines();
    std::vector<Addr> expected;
    for (const Ref &r : lru)
        expected.push_back(r.line);
    std::sort(resident.begin(), resident.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(resident, expected);
}

TEST(Cache, BadGeometryFatal)
{
    EXPECT_DEATH(Cache(CacheConfig{"t", 1000, 2, 64, 3}),
                 "cache");
    EXPECT_DEATH(Cache(CacheConfig{"t", 1024, 2, 48, 3}),
                 "power of two");
}

/** Property sweep: capacity/associativity invariants under random
 *  access streams. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheGeometry, OccupancyNeverExceedsCapacity)
{
    const auto [size_kb, assoc] = GetParam();
    Cache cache(CacheConfig{"t",
                            static_cast<std::uint64_t>(size_kb) * 1024,
                            assoc, 64, 3});
    const std::uint64_t capacity_lines = size_kb * 1024 / 64;
    Rng rng(size_kb * 31 + assoc);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.range(64u << 20);
        if (!cache.access(addr, rng.chance(0.3)).hit)
            cache.insert(addr, false);
    }
    EXPECT_LE(cache.occupancy(), capacity_lines);
    EXPECT_GE(cache.occupancy(), capacity_lines / 2); // well exercised
}

TEST_P(CacheGeometry, InsertedLineIsResidentUntilEvicted)
{
    const auto [size_kb, assoc] = GetParam();
    Cache cache(CacheConfig{"t",
                            static_cast<std::uint64_t>(size_kb) * 1024,
                            assoc, 64, 3});
    // A working set that fits always hits after insertion.
    const int lines = size_kb * 1024 / 64;
    for (int i = 0; i < lines; ++i)
        cache.insert(static_cast<Addr>(i) * 64, false);
    for (int i = 0; i < lines; ++i)
        EXPECT_TRUE(cache.probe(static_cast<Addr>(i) * 64)) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(4, 2),
                      std::make_tuple(32, 8), std::make_tuple(64, 4),
                      std::make_tuple(1024, 8), std::make_tuple(12, 96),
                      std::make_tuple(16, 128)));

} // namespace
} // namespace rab
