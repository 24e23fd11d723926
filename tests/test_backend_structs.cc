/**
 * @file
 * Unit tests: rename machinery, ROB, reservation station, store queue.
 */

#include <gtest/gtest.h>

#include "backend/lsq.hh"
#include "backend/rename.hh"
#include "backend/reservation_station.hh"
#include "backend/rob.hh"

namespace rab
{
namespace
{

DynUop
makeUop(SeqNum seq, Pc pc, ArchReg dest = kNoArchReg,
        ArchReg src1 = kNoArchReg, ArchReg src2 = kNoArchReg)
{
    DynUop u;
    u.seq = seq;
    u.pc = pc;
    u.sop.op = Opcode::kIntAlu;
    u.sop.dest = dest;
    u.sop.src1 = src1;
    u.sop.src2 = src2;
    return u;
}

// --------------------------------------------------------------------
// PhysRegFile / Rat
// --------------------------------------------------------------------

TEST(PhysRegFile, AllocWriteReadFree)
{
    PhysRegFile prf(64);
    EXPECT_EQ(prf.freeCount(), 64);
    const PhysReg r = prf.alloc();
    EXPECT_FALSE(prf.ready(r));
    prf.write(r, 99, false, false);
    EXPECT_TRUE(prf.ready(r));
    EXPECT_EQ(prf.value(r), 99u);
    prf.free(r);
    EXPECT_EQ(prf.freeCount(), 64);
}

TEST(PhysRegFile, PoisonAndProvenanceBits)
{
    PhysRegFile prf(64);
    const PhysReg r = prf.alloc();
    prf.write(r, 0, true, true);
    EXPECT_TRUE(prf.poisoned(r));
    EXPECT_TRUE(prf.offChip(r));
    prf.setPoisoned(r, false);
    EXPECT_FALSE(prf.poisoned(r));
}

TEST(PhysRegFile, DoubleFreePanics)
{
    PhysRegFile prf(64);
    const PhysReg r = prf.alloc();
    prf.free(r);
    EXPECT_DEATH(prf.free(r), "double free");
}

TEST(PhysRegFile, ExhaustionPanics)
{
    PhysRegFile prf(33);
    for (int i = 0; i < 33; ++i)
        prf.alloc();
    EXPECT_FALSE(prf.canAlloc());
    EXPECT_DEATH(prf.alloc(), "free list empty");
}

TEST(PhysRegFile, ResetAllReclaimsEverything)
{
    PhysRegFile prf(64);
    for (int i = 0; i < 10; ++i)
        prf.alloc();
    prf.resetAll();
    EXPECT_EQ(prf.freeCount(), 64);
}

TEST(Rat, MapAndSnapshot)
{
    Rat rat;
    rat.setMap(3, 17);
    EXPECT_EQ(rat.map(3), 17);
    const auto snapshot = rat.snapshot();
    rat.setMap(3, 20);
    rat.restore(snapshot);
    EXPECT_EQ(rat.map(3), 17);
}

// --------------------------------------------------------------------
// Rob
// --------------------------------------------------------------------

TEST(Rob, FifoOrder)
{
    Rob rob(4);
    rob.push(makeUop(1, 10));
    rob.push(makeUop(2, 11));
    EXPECT_EQ(rob.head().seq, 1u);
    rob.popHead();
    EXPECT_EQ(rob.head().seq, 2u);
    EXPECT_EQ(rob.size(), 1);
}

TEST(Rob, FullAndWraparound)
{
    Rob rob(3);
    for (SeqNum s = 1; s <= 3; ++s)
        rob.push(makeUop(s, s));
    EXPECT_TRUE(rob.full());
    rob.popHead();
    rob.push(makeUop(4, 4)); // wraps into the freed slot
    EXPECT_TRUE(rob.full());
    EXPECT_EQ(rob.head().seq, 2u);
    EXPECT_EQ(rob.slot(rob.tailSlot()).seq, 4u);
}

TEST(Rob, PopTailSquash)
{
    Rob rob(4);
    rob.push(makeUop(1, 10));
    const int slot2 = rob.push(makeUop(2, 11));
    rob.popTail();
    EXPECT_EQ(rob.size(), 1);
    EXPECT_FALSE(rob.validSlot(slot2, 2));
}

TEST(Rob, ValidSlotChecksSeq)
{
    Rob rob(4);
    const int slot = rob.push(makeUop(5, 10));
    EXPECT_TRUE(rob.validSlot(slot, 5));
    EXPECT_FALSE(rob.validSlot(slot, 6));
    rob.popHead();
    EXPECT_FALSE(rob.validSlot(slot, 5));
}

TEST(Rob, FindOldestByPc)
{
    Rob rob(8);
    rob.push(makeUop(1, 100)); // the blocking op itself
    rob.push(makeUop(2, 50));
    rob.push(makeUop(3, 100)); // oldest *younger* instance
    rob.push(makeUop(4, 100));
    const int slot = rob.findOldestByPc(100, /*after_seq=*/1);
    ASSERT_GE(slot, 0);
    EXPECT_EQ(rob.slot(slot).seq, 3u);
    EXPECT_EQ(rob.findOldestByPc(999, 1), -1);
}

TEST(Rob, FindProducerYoungestBeforeConsumer)
{
    Rob rob(8);
    rob.push(makeUop(1, 0, /*dest=*/5));
    rob.push(makeUop(2, 1, /*dest=*/5));
    rob.push(makeUop(3, 2, /*dest=*/5));
    const int slot = rob.findProducer(5, /*before_seq=*/3);
    ASSERT_GE(slot, 0);
    EXPECT_EQ(rob.slot(slot).seq, 2u);
    EXPECT_EQ(rob.findProducer(6, 3), -1);
}

TEST(Rob, LogicalToSlotAfterWrap)
{
    Rob rob(3);
    rob.push(makeUop(1, 1));
    rob.push(makeUop(2, 2));
    rob.popHead();
    rob.push(makeUop(3, 3));
    rob.push(makeUop(4, 4));
    EXPECT_EQ(rob.slot(rob.logicalToSlot(0)).seq, 2u);
    EXPECT_EQ(rob.slot(rob.logicalToSlot(2)).seq, 4u);
}

// --------------------------------------------------------------------
// ReservationStation
// --------------------------------------------------------------------

TEST(ReservationStation, SelectsOnlyReady)
{
    Rob rob(8);
    PhysRegFile prf(64);
    const PhysReg ready_reg = prf.alloc();
    prf.write(ready_reg, 1, false, false);
    const PhysReg pending_reg = prf.alloc(); // not ready

    DynUop a = makeUop(1, 0, 1, 2);
    a.psrc1 = ready_reg;
    DynUop b = makeUop(2, 1, 3, 4);
    b.psrc1 = pending_reg;
    const int slot_a = rob.push(std::move(a));
    const int slot_b = rob.push(std::move(b));

    ReservationStation rs(4);
    rs.insert(slot_a, 1, ready_reg, kNoPhysReg, prf);
    rs.insert(slot_b, 2, pending_reg, kNoPhysReg, prf);
    const auto selected = rs.selectReady(4);
    ASSERT_EQ(selected.size(), 1u);
    EXPECT_EQ(selected[0], slot_a);
    EXPECT_EQ(rs.size(), 1);
}

TEST(ReservationStation, WakeupOnWrite)
{
    Rob rob(8);
    PhysRegFile prf(64);
    const PhysReg src = prf.alloc(); // not ready

    DynUop a = makeUop(1, 0, 1, 2);
    a.psrc1 = src;
    const int slot = rob.push(std::move(a));

    ReservationStation rs(4);
    rs.insert(slot, 1, src, kNoPhysReg, prf);
    EXPECT_FALSE(rs.hasReady());
    EXPECT_FALSE(rs.anyReady(rob, prf));
    EXPECT_TRUE(rs.selectReady(4).empty());

    prf.write(src, 7, false, false);
    rs.notifyWritten(src);
    EXPECT_TRUE(rs.hasReady());
    EXPECT_TRUE(rs.anyReady(rob, prf));
    const auto selected = rs.selectReady(4);
    ASSERT_EQ(selected.size(), 1u);
    EXPECT_EQ(selected[0], slot);
    EXPECT_FALSE(rs.hasReady());
}

TEST(ReservationStation, WakeupBothSourcesSameRegister)
{
    // src1 == src2: the entry enlists twice on the same register but
    // must wake exactly once and stay selectable exactly once.
    Rob rob(8);
    PhysRegFile prf(64);
    const PhysReg src = prf.alloc(); // not ready

    DynUop a = makeUop(1, 0, 1, 2);
    a.psrc1 = src;
    a.psrc2 = src;
    const int slot = rob.push(std::move(a));

    ReservationStation rs(4);
    rs.insert(slot, 1, src, src, prf);
    EXPECT_FALSE(rs.hasReady());

    prf.write(src, 7, false, false);
    rs.notifyWritten(src);
    const auto selected = rs.selectReady(4);
    ASSERT_EQ(selected.size(), 1u);
    EXPECT_EQ(selected[0], slot);
    EXPECT_EQ(rs.size(), 0);
    EXPECT_FALSE(rs.hasReady());
}

TEST(ReservationStation, OldestFirstWithinWidth)
{
    Rob rob(8);
    PhysRegFile prf(64);
    ReservationStation rs(8);
    std::vector<int> slots;
    for (SeqNum s = 1; s <= 4; ++s) {
        slots.push_back(rob.push(makeUop(s, s)));
        rs.insert(slots.back(), s, kNoPhysReg, kNoPhysReg, prf);
    }
    const auto selected = rs.selectReady(2);
    ASSERT_EQ(selected.size(), 2u);
    EXPECT_EQ(rob.slot(selected[0]).seq, 1u);
    EXPECT_EQ(rob.slot(selected[1]).seq, 2u);
}

TEST(ReservationStation, SquashAfterRemovesYounger)
{
    Rob rob(8);
    PhysRegFile prf(64);
    ReservationStation rs(8);
    for (SeqNum s = 1; s <= 4; ++s)
        rs.insert(rob.push(makeUop(s, s)), s, kNoPhysReg, kNoPhysReg,
                  prf);
    rs.squashAfter(2);
    EXPECT_EQ(rs.size(), 2);
    // Squashed entries must also leave the ready list: only the two
    // surviving (source-less, hence ready) entries may issue.
    EXPECT_EQ(rs.selectReady(8).size(), 2u);
}

TEST(ReservationStation, StaleWakeupAfterSquashIsHarmless)
{
    // An entry squashed while waiting leaves a stale registration in
    // the register's wakeup list; a later write must not revive it or
    // corrupt the ready list.
    Rob rob(8);
    PhysRegFile prf(64);
    const PhysReg src = prf.alloc(); // not ready

    DynUop a = makeUop(5, 0, 1, 2);
    a.psrc1 = src;
    const int slot = rob.push(std::move(a));

    ReservationStation rs(4);
    rs.insert(slot, 5, src, kNoPhysReg, prf);
    rs.squashAfter(2); // removes seq 5
    EXPECT_EQ(rs.size(), 0);

    prf.write(src, 7, false, false);
    rs.notifyWritten(src);
    EXPECT_FALSE(rs.hasReady());
    EXPECT_TRUE(rs.selectReady(4).empty());
}

TEST(ReservationStation, FullInsertPanics)
{
    Rob rob(8);
    PhysRegFile prf(64);
    ReservationStation rs(1);
    rs.insert(rob.push(makeUop(1, 1)), 1, kNoPhysReg, kNoPhysReg, prf);
    const int slot = rob.push(makeUop(2, 2));
    EXPECT_DEATH(rs.insert(slot, 2, kNoPhysReg, kNoPhysReg, prf),
                 "full");
}

// --------------------------------------------------------------------
// StoreQueue
// --------------------------------------------------------------------

TEST(StoreQueue, ForwardsYoungestOlderStore)
{
    StoreQueue sq(8);
    sq.allocate(1, 0);
    sq.allocate(3, 1);
    sq.setAddress(1, 0x100, false);
    sq.setData(1, 11, false);
    sq.setAddress(3, 0x100, false);
    sq.setData(3, 33, false);
    const SqSearch hit = sq.searchForLoad(/*load_seq=*/5, 0x100);
    EXPECT_EQ(hit.kind, SqSearch::Kind::kForward);
    EXPECT_EQ(hit.data, 33u);
    // A load between the stores sees only the older one.
    const SqSearch mid = sq.searchForLoad(2, 0x100);
    EXPECT_EQ(mid.data, 11u);
}

TEST(StoreQueue, UnknownOlderAddressBlocks)
{
    StoreQueue sq(8);
    sq.allocate(1, 0); // address never computed
    const SqSearch r = sq.searchForLoad(2, 0x200);
    EXPECT_EQ(r.kind, SqSearch::Kind::kUnknownAddr);
}

TEST(StoreQueue, MatchWithoutDataIsNotReady)
{
    StoreQueue sq(8);
    sq.allocate(1, 0);
    sq.setAddress(1, 0x300, false);
    const SqSearch r = sq.searchForLoad(2, 0x300);
    EXPECT_EQ(r.kind, SqSearch::Kind::kNotReady);
}

TEST(StoreQueue, PoisonedAddressMatchesNothing)
{
    StoreQueue sq(8);
    sq.allocate(1, 0);
    sq.setAddress(1, 0, /*poisoned=*/true);
    sq.setData(1, 5, false);
    const SqSearch r = sq.searchForLoad(2, 0x0);
    EXPECT_EQ(r.kind, SqSearch::Kind::kNoMatch);
}

TEST(StoreQueue, WordGranularity)
{
    StoreQueue sq(8);
    sq.allocate(1, 0);
    sq.setAddress(1, 0x100, false);
    sq.setData(1, 9, false);
    EXPECT_EQ(sq.searchForLoad(2, 0x104).kind,
              SqSearch::Kind::kForward); // same 8-byte word
    EXPECT_EQ(sq.searchForLoad(2, 0x108).kind,
              SqSearch::Kind::kNoMatch);
}

TEST(StoreQueue, ReleaseInOrderAndSquash)
{
    StoreQueue sq(8);
    sq.allocate(1, 0);
    sq.allocate(2, 1);
    sq.allocate(3, 2);
    sq.squashAfter(2);
    EXPECT_EQ(sq.size(), 2);
    sq.release(1);
    sq.release(2);
    EXPECT_EQ(sq.size(), 0);
}

TEST(StoreQueue, ReleaseOutOfOrderPanics)
{
    StoreQueue sq(8);
    sq.allocate(1, 0);
    sq.allocate(2, 1);
    EXPECT_DEATH(sq.release(2), "out of order");
}

TEST(StoreQueue, FindStoreRobSlotForChainGen)
{
    StoreQueue sq(8);
    sq.allocate(1, 7);
    sq.setAddress(1, 0x400, false);
    EXPECT_EQ(sq.findStoreRobSlot(/*before_seq=*/2, 0x400), 7);
    EXPECT_EQ(sq.findStoreRobSlot(1, 0x400), -1); // not older
    EXPECT_EQ(sq.findStoreRobSlot(2, 0x500), -1);
}

} // namespace
} // namespace rab
