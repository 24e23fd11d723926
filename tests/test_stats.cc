/**
 * @file
 * Unit tests: statistics package.
 */

#include <gtest/gtest.h>

#include "stats/stats.hh"

namespace rab
{
namespace
{

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(StatGroup, CollectAndGet)
{
    StatGroup root("root");
    Counter c;
    c += 3;
    double scalar = 1.5;
    root.addCounter("events", &c);
    root.addScalar("ratio", &scalar);

    StatGroup child("child", &root);
    Counter c2;
    c2 += 9;
    child.addCounter("inner", &c2);

    const auto all = root.collect();
    EXPECT_EQ(all.at("root.events"), 3.0);
    EXPECT_EQ(all.at("root.ratio"), 1.5);
    EXPECT_EQ(all.at("root.child.inner"), 9.0);

    EXPECT_EQ(root.get("events"), 3.0);
    EXPECT_EQ(root.get("child.inner"), 9.0);
}

TEST(StatGroup, CollectReadsLiveValues)
{
    StatGroup root("root");
    Counter c;
    root.addCounter("c", &c);
    ++c;
    EXPECT_EQ(root.get("c"), 1.0);
    c += 10;
    EXPECT_EQ(root.get("c"), 11.0);
}

TEST(StatGroup, ResetCountersRecursive)
{
    StatGroup root("root");
    StatGroup child("child", &root);
    Counter a;
    Counter b;
    a += 5;
    b += 7;
    root.addCounter("a", &a);
    child.addCounter("b", &b);
    root.resetCounters();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);
}

TEST(StatGroup, CountersZeroCoversTheSubtree)
{
    StatGroup root("root");
    StatGroup child("child", &root);
    Counter b;
    double scalar = 2.0; // A scalar is state, not a counter.
    root.addScalar("s", &scalar);
    child.addCounter("b", &b);
    EXPECT_TRUE(root.countersZero());
    ++b;
    EXPECT_FALSE(root.countersZero());
    root.resetCounters();
    EXPECT_TRUE(root.countersZero());
}

TEST(StatGroup, GetUnknownPanics)
{
    StatGroup root("root");
    EXPECT_DEATH(root.get("nope"), "unknown stat");
}

TEST(StatGroup, ClaimExclusiveIsPerOwnerAndRecursive)
{
    StatGroup root("root");
    StatGroup child("child", &root);
    const int owner_a = 0;

    EXPECT_EQ(root.exclusiveOwner(), nullptr);
    root.claimExclusive(&owner_a);
    EXPECT_EQ(root.exclusiveOwner(), &owner_a);
    EXPECT_EQ(child.exclusiveOwner(), &owner_a);

    // Re-claiming with the same owner is idempotent.
    root.claimExclusive(&owner_a);

    // Releasing frees the whole subtree for the next run.
    root.releaseExclusive(&owner_a);
    EXPECT_EQ(root.exclusiveOwner(), nullptr);
    EXPECT_EQ(child.exclusiveOwner(), nullptr);
    const int owner_b = 0;
    root.claimExclusive(&owner_b);
    EXPECT_EQ(child.exclusiveOwner(), &owner_b);
}

TEST(StatGroup, AliasedClaimPanics)
{
    // Two live owners over the same stat storage is exactly the
    // counter-aliasing bug the sweep engine must never hit; the claim
    // turns it from silent corruption into an immediate panic.
    StatGroup root("root");
    const int owner_a = 0;
    const int owner_b = 0;
    root.claimExclusive(&owner_a);
    EXPECT_DEATH(root.claimExclusive(&owner_b), "already claimed");
}

TEST(StatGroup, AliasedChildClaimPanics)
{
    StatGroup root("root");
    StatGroup child("child", &root);
    const int owner_a = 0;
    const int owner_b = 0;
    child.claimExclusive(&owner_a);
    EXPECT_DEATH(root.claimExclusive(&owner_b), "already claimed");
}

} // namespace
} // namespace rab
