/**
 * @file
 * Whole-simulator snapshot capture/restore.
 *
 * This translation unit holds every per-component serializer
 * (SnapshotAccess::io definitions — the single save/load description
 * of each class's state), the section framing, the config digests and
 * the CRC-framed file I/O. Keeping all of it in one TU means the
 * component headers stay free of serialization code beyond their one
 * `friend struct SnapshotAccess;` line.
 *
 * Payload layout (DESIGN.md §16):
 *   "RABSNAP1" + u32 formatVersion + sections, each u32 tag + u64
 *   length + body:
 *     META  digests, identity, fork-safety, presence flags
 *     CORE  the full core pipeline (+ checker, watchdog, RNG-free)
 *     VRNT  variant-specific: runahead controller + chain analysis
 *     MEM   the memory hierarchy incl. the owned SharedMemory
 *     ENGN  Continuous Runahead engine (presence flag + state)
 *     FALT  fault injector (presence flag + RNG cursor + counters)
 *
 * Fork-mode restore length-skips VRNT and ENGN: a config variant keeps
 * its freshly constructed runahead structures and re-derives everything
 * variant-specific, which is only sound when the image was captured
 * outside any runahead interval (META.forkSafe).
 *
 * Not serialized, by design: config structs and config-derived fields
 * (the restoring simulation is constructed from its own config, which
 * the digests gate), wiring pointers, std::function members (the
 * functional-memory background and commit hooks are reinstalled by
 * construction), StatGroup registrations, pure scratch buffers
 * that are overwritten before every use (RS selection buffer, WBQ
 * ready buffer, prefetch candidate list, chain-generator SRSL,
 * checker reference marks), and dead table entries: invalid cache
 * lines, dead ROB slots and never-valid BTB entries are overwritten
 * before anything reads them, so only live entries are written. The
 * caches' valid-way masks are rebuilt from the restored lines and
 * their MRU-way hints reset (DESIGN.md §16 gives the argument).
 */

#include "snapshot/snapshot.hh"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>

#include "backend/core.hh"
#include "common/durable_file.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "core/config_fields.hh"
#include "core/simulation.hh"
#include "snapshot/archive.hh"

namespace rab
{

namespace
{

/**
 * Live entries of a fixed-capacity table: a u64 count, then for each
 * live entry in ascending index order its u32 index and the fields
 * @p entry serializes. @p each_live visits the live indices in
 * ascending order (save only). The capacity is the restoring
 * simulation's own geometry; on load the count must fit it and every
 * index must lie inside it and above the one before, so a corrupt
 * payload can neither write out of bounds nor restore an entry twice.
 */
template <class Ar, class EachLive, class Entry>
void
fieldSparse(Ar &ar, const char *what, std::size_t capacity,
            EachLive each_live, Entry entry)
{
    if constexpr (!Ar::kIsLoad) {
        if (capacity > std::numeric_limits<std::uint32_t>::max()) {
            throw SnapshotError(SnapshotErrorKind::kFormat,
                                strprintf("%s has %zu entries, more "
                                          "than a u32 index reaches",
                                          what, capacity));
        }
        std::uint64_t n = 0;
        each_live([&](std::size_t) { ++n; });
        field(ar, n);
        each_live([&](std::size_t i) {
            auto index = static_cast<std::uint32_t>(i);
            field(ar, index);
            entry(ar, i);
        });
    } else {
        const std::uint64_t n =
            fieldCount(ar, 0, sizeof(std::uint32_t));
        if (n > capacity) {
            throw SnapshotError(
                SnapshotErrorKind::kFormat,
                strprintf("%s has %llu live entries, capacity %zu",
                          what, (unsigned long long)n, capacity));
        }
        std::uint64_t next = 0; // Lowest index the next entry may use.
        for (std::uint64_t k = 0; k < n; ++k) {
            std::uint32_t index = 0;
            field(ar, index);
            if (index < next || index >= capacity) {
                throw SnapshotError(
                    SnapshotErrorKind::kFormat,
                    strprintf("%s entry index %llu repeated, out of "
                              "order or outside capacity %zu",
                              what, (unsigned long long)index,
                              capacity));
            }
            next = std::uint64_t{index} + 1;
            entry(ar, std::size_t{index});
        }
    }
}

} // namespace

/* ------------------------------------------------------------------ */
/* Per-component serializers.                                          */
/* ------------------------------------------------------------------ */

template <class Ar>
void
SnapshotAccess::io(Ar &ar, Counter &v)
{
    field(ar, v.value_);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, Distribution &v)
{
    field(ar, v.low_);
    field(ar, v.high_);
    field(ar, v.bucketSize_);
    field(ar, v.buckets_);
    field(ar, v.underflow_);
    field(ar, v.overflow_);
    field(ar, v.samples_);
    field(ar, v.sum_);
    field(ar, v.min_);
    field(ar, v.max_);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, Rng &v)
{
    field(ar, v.state_);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, Uop &v)
{
    field(ar, v.op);
    field(ar, v.func);
    field(ar, v.cond);
    field(ar, v.dest);
    field(ar, v.src1);
    field(ar, v.src2);
    field(ar, v.imm);
    field(ar, v.target);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, DynUop &v)
{
    field(ar, v.seq);
    field(ar, v.pc);
    field(ar, v.sop);
    field(ar, v.pdst);
    field(ar, v.psrc1);
    field(ar, v.psrc2);
    field(ar, v.prevPdst);
    field(ar, v.inRs);
    field(ar, v.issued);
    field(ar, v.executed);
    field(ar, v.completed);
    field(ar, v.poisoned);
    field(ar, v.memIssued);
    field(ar, v.llcMiss);
    field(ar, v.offChipWait);
    field(ar, v.readyAt);
    field(ar, v.v1);
    field(ar, v.v2);
    field(ar, v.result);
    field(ar, v.effAddr);
    field(ar, v.missIssueInstrNum);
    field(ar, v.sqIndex);
    field(ar, v.forwarded);
    field(ar, v.isRunahead);
    field(ar, v.fromRunaheadBuffer);
    field(ar, v.srcFromOffChip);
    field(ar, v.predTaken);
    field(ar, v.actualTaken);
    field(ar, v.mispredicted);
    field(ar, v.predTarget);
    field(ar, v.nextPc);
    field(ar, v.historySnapshot);
    field(ar, v.instrNum);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, ChainOp &v)
{
    field(ar, v.pc);
    field(ar, v.sop);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, FetchedUop &v)
{
    field(ar, v.pc);
    field(ar, v.sop);
    field(ar, v.predTaken);
    field(ar, v.predTarget);
    field(ar, v.historySnapshot);
    field(ar, v.readyCycle);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, WbEvent &v)
{
    field(ar, v.when);
    field(ar, v.robSlot);
    field(ar, v.seq);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, ArchCheckpoint &v)
{
    field(ar, v.values);
    field(ar, v.branchHistory);
    field(ar, v.ras);
    field(ar, v.resumePc);
    field(ar, v.valid);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, BranchPredictor &v)
{
    field(ar, v.history_);
    field(ar, v.bimodal_);
    field(ar, v.gshare_);
    field(ar, v.chooser_);
    // Valid entries only: an entry's pc and target are read only once
    // update() has set its valid bit, which nothing ever clears.
    if constexpr (Ar::kIsLoad)
        v.btb_.assign(v.btb_.size(), {});
    fieldSparse(
        ar, "BTB", v.btb_.size(),
        [&](auto fn) {
            for (std::size_t i = 0; i < v.btb_.size(); ++i) {
                if (v.btb_[i].valid)
                    fn(i);
            }
        },
        [&](Ar &a, std::size_t i) {
            field(a, v.btb_[i].pc);
            field(a, v.btb_[i].target);
            if constexpr (Ar::kIsLoad)
                v.btb_[i].valid = true;
        });
    field(ar, v.ras_);
    io(ar, v.lookups);
    io(ar, v.mispredicts);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, Frontend &v)
{
    field(ar, v.fetchPc_);
    field(ar, v.gated_);
    field(ar, v.stalledUntil_);
    field(ar, v.queue_);
    field(ar, v.queueHead_);
    field(ar, v.queueCount_);
    io(ar, v.fetchedUops);
    io(ar, v.activeCycles);
    io(ar, v.gatedCycles);
    io(ar, v.idleCycles);
    io(ar, v.icacheStallCycles);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, PhysRegFile &v)
{
    fieldSeq(ar, v.regs_, [](Ar &a, auto &r) {
        field(a, r.value);
        field(a, r.ready);
        field(a, r.poisoned);
        field(a, r.offChip);
        field(a, r.allocated);
    });
    field(ar, v.freeList_);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, Rat &v)
{
    field(ar, v.map_);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, Rob &v)
{
    // Live entries only, oldest first. Every other slot is dead:
    // push() and beginPush() overwrite a slot before it turns live,
    // and slot() refuses dead ones.
    field(ar, v.head_);
    field(ar, v.size_);
    if constexpr (Ar::kIsLoad) {
        if (v.head_ < 0 || v.head_ >= v.capacity_ || v.size_ < 0
            || v.size_ > v.capacity_) {
            throw SnapshotError(
                SnapshotErrorKind::kFormat,
                strprintf("ROB head %d / size %d outside capacity %d",
                          v.head_, v.size_, v.capacity_));
        }
        v.live_.assign(v.live_.size(), false);
    }
    for (int i = 0; i < v.size_; ++i) {
        const int slot = v.wrapSlot(v.head_ + i);
        field(ar, v.entries_[slot]);
        if constexpr (Ar::kIsLoad)
            v.live_[slot] = true;
    }
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, ReservationStation &v)
{
    field(ar, v.size_);
    fieldSeq(ar, v.entries_, [](Ar &a, auto &e) {
        field(a, e.valid);
        field(a, e.wait1);
        field(a, e.wait2);
        field(a, e.robSlot);
        field(a, e.seq);
        field(a, e.src1);
        field(a, e.src2);
    });
    field(ar, v.freeSlots_);
    field(ar, v.readyList_);
    field(ar, v.waiters_); // Exact, stale entries included: the drain
                           // order of a wakeup list is visible.
    io(ar, v.inserts);
    io(ar, v.wakeups);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, StoreQueue &v)
{
    fieldSeq(ar, v.entries_, [](Ar &a, auto &e) {
        field(a, e.seq);
        field(a, e.robSlot);
        field(a, e.wordAddr);
        field(a, e.data);
        field(a, e.dataReady);
        field(a, e.addrPoisoned);
        field(a, e.dataPoisoned);
    });
    io(ar, v.forwards);
    io(ar, v.unknownAddrStalls);
    io(ar, v.searches);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, WritebackQueue &v)
{
    // The raw heap vector round-trips exactly: the std heap operations
    // are deterministic functions of the container contents.
    field(ar, v.heap_);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, IssuePorts &v)
{
    field(ar, v.usedWidth_);
    field(ar, v.usedMem_);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, FunctionalMemory &v)
{
    field(ar, v.mem_); // Sorted by address on save (see archive.hh).
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, Cache &v)
{
    // Valid lines only. insert() rewrites every field of the line it
    // fills, and no lookup reads an invalid line, so invalid lines are
    // dead state; validMask_ is a function of the valid bits, and
    // mruWay_ only picks which way findWay() tries first (tags are
    // unique within a set, so any order finds the same way).
    const auto ways = static_cast<std::size_t>(v.config_.associativity);
    const auto each_valid = [&](auto fn) {
        if (v.wideSets_) {
            for (std::size_t i = 0; i < v.lines_.size(); ++i) {
                if (v.lines_[i].valid)
                    fn(i);
            }
            return;
        }
        for (std::size_t set = 0; set < v.validMask_.size(); ++set) {
            for (std::uint64_t m = v.validMask_[set]; m != 0; m &= m - 1) {
                const auto way = static_cast<std::size_t>(std::countr_zero(m));
                fn(set * ways + way);
            }
        }
    };
    if constexpr (Ar::kIsLoad) {
        each_valid([&](std::size_t i) { v.lines_[i].valid = false; });
        std::fill(v.validMask_.begin(), v.validMask_.end(), 0);
        std::fill(v.mruWay_.begin(), v.mruWay_.end(), -1);
    }
    fieldSparse(ar, "cache", v.lines_.size(), each_valid,
                [&](Ar &a, std::size_t i) {
                    Cache::Line &l = v.lines_[i];
                    field(a, l.dirty);
                    field(a, l.prefetched);
                    field(a, l.tag);
                    field(a, l.lruStamp);
                    if constexpr (Ar::kIsLoad) {
                        l.valid = true;
                        if (!v.wideSets_)
                            v.validMask_[i / ways] |= std::uint64_t(1)
                                << (i % ways);
                    }
                });
    field(ar, v.lruCounter_);
    io(ar, v.hits);
    io(ar, v.misses);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, Dram &v)
{
    fieldSeq(ar, v.banks_, [](Ar &a, auto &b) {
        field(a, b.rowOpen);
        field(a, b.openRow);
        field(a, b.freeAt);
    });
    field(ar, v.busFreeAt_);
    io(ar, v.reads);
    io(ar, v.writes);
    io(ar, v.rowHits);
    io(ar, v.rowConflicts);
    io(ar, v.latencySum);
    io(ar, v.queueWaitSum);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, StreamPrefetcher &v)
{
    field(ar, v.distance_); // FDP-mutable aggressiveness.
    field(ar, v.degree_);
    fieldSeq(ar, v.streams_, [](Ar &a, auto &s) {
        field(a, s.valid);
        field(a, s.confirmations);
        field(a, s.direction);
        field(a, s.lastDemand);
        field(a, s.head);
        field(a, s.lruStamp);
    });
    field(ar, v.lruCounter_);
    field(ar, v.intervalIssued_);
    field(ar, v.intervalUseful_);
    io(ar, v.issued);
    io(ar, v.useful);
    io(ar, v.unused);
    io(ar, v.streamsAllocated);
    io(ar, v.fdpDowngrades);
    io(ar, v.fdpUpgrades);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, SharedMemory &v)
{
    io(ar, v.llc_);
    io(ar, v.dram_);
    io(ar, v.prefetcher_);
    field(ar, v.llcPending_);
    field(ar, v.llcPendingMax_);
    fieldSeq(ar, v.outstanding_, [](Ar &a, auto &m) {
        field(a, m.ready);
        field(a, m.core);
    });
    field(ar, v.heldNow_);
    field(ar, v.mshrPeak_);
    io(ar, v.crossCoreEvictions);
    io(ar, v.ownerClamps);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, MemorySystem &v)
{
    io(ar, v.l1i_);
    io(ar, v.l1d_);
    field(ar, v.l1iPending_);
    field(ar, v.l1dPending_);
    field(ar, v.l1iPendingMax_);
    field(ar, v.l1dPendingMax_);
    io(ar, v.demandLoads);
    io(ar, v.demandStores);
    io(ar, v.llcDemandMisses);
    io(ar, v.llcLoadMisses);
    io(ar, v.queueRejects);
    io(ar, v.prefetchesIssued);
    io(ar, v.mshrMerges);
    io(ar, v.memRetries);
    io(ar, v.memTimeouts);
    io(ar, v.memRetryFailures);
    io(ar, v.queueFaultStalls);
    io(ar, v.llcEvictedByOthers);
    io(ar, v.bankConflicts);
    io(ar, v.bankConflictWaitCycles);
    io(ar, v.sharedMshrPeersHeld);
    io(ar, v.queueRejectsContended);
    io(ar, v.addrHighMasked);
    io(ar, *v.shared_); // Images hold one core: its chip is its own.
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, RunaheadCache &v)
{
    fieldSeq(ar, v.lines_, [](Ar &a, auto &l) {
        field(a, l.valid);
        field(a, l.tag);
        field(a, l.data);
        field(a, l.lruStamp);
    });
    field(ar, v.lruCounter_);
    io(ar, v.writes);
    io(ar, v.readHits);
    io(ar, v.readMisses);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, RunaheadBuffer &v)
{
    field(ar, v.active_);
    field(ar, v.chain_);
    field(ar, v.index_);
    field(ar, v.iterations_);
    io(ar, v.fills);
    io(ar, v.opsIssued);
    io(ar, v.loops);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, ChainCache &v)
{
    fieldSeq(ar, v.slots_, [](Ar &a, auto &s) {
        field(a, s.valid);
        field(a, s.pc);
        field(a, s.chain);
        field(a, s.lruStamp);
    });
    field(ar, v.lruCounter_);
    io(ar, v.hits);
    io(ar, v.misses);
    io(ar, v.inserts);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, ChainGenerator &v)
{
    // The SRSL, included-set and CAM-lookup buffers are per-call
    // scratch.
    io(ar, v.attempts);
    io(ar, v.noPcMatch);
    io(ar, v.overflows);
    io(ar, v.generatedChains);
    io(ar, v.generatedOps);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, ChainAnalysis &v)
{
    field(ar, v.inInterval_);
    fieldSeq(ar, v.history_, [](Ar &a, auto &rec) {
        field(a, rec.seq);
        field(a, rec.pc);
        field(a, rec.dest);
        field(a, rec.src1);
        field(a, rec.src2);
    });
    field(ar, v.head_);
    field(ar, v.ordered_);
    field(ar, v.necessary_);
    field(ar, v.necessaryUnique_);
    field(ar, v.signatures_);
    if constexpr (Ar::kIsLoad) {
        if (v.head_ > v.ordered_ || v.ordered_ > v.history_.size()
            || v.necessaryUnique_ > v.necessary_.size()) {
            throw SnapshotError(SnapshotErrorKind::kFormat,
                                "chain analysis window out of bounds");
        }
    }
    field(ar, v.intervalExecuted_);
    io(ar, v.opsExecuted);
    io(ar, v.opsNecessary);
    io(ar, v.chainsTotal);
    io(ar, v.chainsRepeated);
    io(ar, v.chainLengthSum);
    io(ar, v.chainsMeasured);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, DegradationLadder &v)
{
    field(ar, v.level_);
    field(ar, v.faultsAtLevel_);
    field(ar, v.cycle_);
    field(ar, v.lastFaultCycle_);
    field(ar, v.levelValue_);
    io(ar, v.faultsObserved);
    io(ar, v.degradeSteps);
    io(ar, v.reenableSteps);
    io(ar, v.toNoChainCache);
    io(ar, v.toNoBuffer);
    io(ar, v.toNoRunahead);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, ChainEngine &v)
{
    fieldSeq(ar, v.slots_, [](Ar &a, auto &s) {
        field(a, s.valid);
        field(a, s.running);
        field(a, s.chainPc);
        field(a, s.chain);
        field(a, s.regs);
        field(a, s.regReady);
        fieldSeq(a, s.storeBuf, [](Ar &aa, auto &st) {
            field(aa, st.addr);
            field(aa, st.value);
        });
        field(a, s.index);
        field(a, s.utility);
        field(a, s.stallUntil);
        field(a, s.fillsThisIteration);
        field(a, s.idleIterations);
    });
    field(ar, v.nextSlotRr_);
    fieldSeq(ar, v.recent_, [](Ar &a, auto &f) {
        field(a, f.line);
        field(a, f.readyCycle);
        field(a, f.issuedCycle);
        field(a, f.slot);
    });
    field(ar, v.cycle_);
    io(ar, v.chainsShipped);
    io(ar, v.chainReplacements);
    io(ar, v.uopsExecuted);
    io(ar, v.loadsExecuted);
    io(ar, v.storeUopsSeen);
    io(ar, v.storesContained);
    io(ar, v.prefetchesIssued);
    io(ar, v.prefetchesTimely);
    io(ar, v.prefetchesLate);
    io(ar, v.prefetchesUnused);
    io(ar, v.iterations);
    io(ar, v.deschedules);
    io(ar, v.queueStalls);
    io(ar, v.pacingStalls);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, RunaheadController &v)
{
    field(ar, v.mode_);
    field(ar, v.blockingReady_);
    field(ar, v.bufferIssueStart_);
    field(ar, v.enteredAt_);
    field(ar, v.missesAtEntry_);
    field(ar, v.farthestInstr_);
    io(ar, v.intervalLengths_);
    io(ar, v.intervalMlp_);
    io(ar, v.runaheadCache_);
    io(ar, v.chainGen_);
    io(ar, v.chainCache_);
    io(ar, v.buffer_);
    io(ar, v.ladder_);
    io(ar, v.intervals);
    io(ar, v.traditionalIntervals);
    io(ar, v.bufferIntervals);
    io(ar, v.cyclesTraditional);
    io(ar, v.cyclesBuffer);
    io(ar, v.chainGenCycles);
    io(ar, v.runaheadMisses);
    io(ar, v.suppressedShort);
    io(ar, v.suppressedOverlap);
    io(ar, v.noChainNoEntry);
    io(ar, v.chainCacheExactHits);
    io(ar, v.chainCacheCheckedHits);
    io(ar, v.checkpoints);
    io(ar, v.pcCamSearches);
    io(ar, v.regCamSearches);
    io(ar, v.sqCamSearches);
    io(ar, v.robChainReads);
    io(ar, v.speculativeFaults);
    io(ar, v.cachedChainsRejected);
    io(ar, v.degradedNoEntry);
    io(ar, v.degradedTraditional);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, FaultInjector &v)
{
    io(ar, v.rng_);
    field(ar, v.stallUntil_);
    io(ar, v.chainCorruptions);
    io(ar, v.uopFlips);
    io(ar, v.dramDrops);
    io(ar, v.dramDelays);
    io(ar, v.memStallWindows);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, ForwardProgressWatchdog &v)
{
    field(ar, v.lastFireRetired_);
    field(ar, v.firedBefore_);
    field(ar, v.consecutive_);
    io(ar, v.fires);
    io(ar, v.recoveries);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, InvariantChecker &v)
{
    field(ar, v.now_);
    field(ar, v.inRunahead_);
    field(ar, v.entrySnapshot_);
    io(ar, v.checksRun);
    io(ar, v.violations);
    io(ar, v.violationsRouted);
}

template <class Ar>
void
SnapshotAccess::io(Ar &ar, Core &v)
{
    io(ar, v.funcMem_);
    io(ar, v.bp_);
    io(ar, *v.frontend_);
    io(ar, v.prf_);
    io(ar, v.rat_);
    field(ar, v.archValues_);
    io(ar, v.rob_);
    io(ar, v.rs_);
    io(ar, v.sq_);
    if constexpr (Ar::kIsLoad) {
        // RS and SQ entries name ROB slots of the capturing machine. A
        // smaller ROB can pass the head and size checks yet not hold
        // them live, and issue would then read a dead slot.
        const auto require_live = [&](int slot, SeqNum seq) {
            if (!v.rob_.validSlot(slot, seq)) {
                throw SnapshotError(
                    SnapshotErrorKind::kFormat,
                    strprintf("uop %llu names ROB slot %d, which does "
                              "not hold it",
                              (unsigned long long)seq, slot));
            }
        };
        for (const auto &e : v.rs_.entries_) {
            if (e.valid)
                require_live(e.robSlot, e.seq);
        }
        for (const auto &e : v.sq_.entries_)
            require_live(e.robSlot, e.seq);
    }
    io(ar, v.wbq_);
    io(ar, v.ports_);
    io(ar, v.watchdog_);
    io(ar, v.checkpoint_);
    io(ar, *v.checker_);
    field(ar, v.cycle_);
    field(ar, v.seqCounter_);
    field(ar, v.retired_);
    field(ar, v.fetchedInstrNum_);
    field(ar, v.retiredAtEntry_);
    field(ar, v.pseudoRetiredInterval_);
    field(ar, v.lastCommitCycle_);
    field(ar, v.stallCyclesSinceCommit_);
    field(ar, v.renameProgress_);
    field(ar, v.entryDenied_);
    field(ar, v.entryDeniedSeq_);
    field(ar, v.entryDeniedLadderSteps_);
    field(ar, v.pipelineActivity_);
    field(ar, v.resumePc_);
    io(ar, v.committedUops);
    io(ar, v.pseudoRetiredUops);
    io(ar, v.renamedUops);
    io(ar, v.issuedUops);
    io(ar, v.issuedMemUops);
    io(ar, v.prfReads);
    io(ar, v.prfWrites);
    io(ar, v.robWrites);
    io(ar, v.robReads);
    io(ar, v.memStallCycles);
    io(ar, v.stallLoadOther);
    io(ar, v.stallExec);
    io(ar, v.stallEmptyRob);
    io(ar, v.robFullCycles);
    io(ar, v.squashedUops);
    io(ar, v.fig2MissTotal);
    io(ar, v.fig2MissSrcOnChip);
    io(ar, v.loadsForwarded);
    io(ar, v.runaheadCacheForwards);
    io(ar, v.loadQueueRetries);
    io(ar, v.storeQueueRetries);
    io(ar, v.memFaultRetries);
    io(ar, v.watchdogFlushes);
    io(ar, v.ffWindows);
    io(ar, v.ffSkippedCycles);
}

/* ------------------------------------------------------------------ */
/* Hashes, digests, framing.                                           */
/* ------------------------------------------------------------------ */

namespace
{

/** Section tags (little-endian fourcc). */
constexpr std::uint32_t kSecMeta = 0x4154454du;    // "META"
constexpr std::uint32_t kSecCore = 0x45524f43u;    // "CORE"
constexpr std::uint32_t kSecVariant = 0x544e5256u; // "VRNT"
constexpr std::uint32_t kSecMem = 0x204d454du;     // "MEM "
constexpr std::uint32_t kSecEngine = 0x4e474e45u;  // "ENGN"
constexpr std::uint32_t kSecFault = 0x544c4146u;   // "FALT"

constexpr char kPayloadMagic[8] = {'R', 'A', 'B', 'S',
                                   'N', 'A', 'P', '1'};
constexpr char kFileMagic[8] = {'R', 'A', 'B', 'S', 'N', 'A', 'P', 'F'};

template <class Ar>
void
ioMeta(Ar &ar, SnapshotMeta &m)
{
    field(ar, m.formatVersion);
    field(ar, m.configDigest);
    field(ar, m.warmupDigest);
    field(ar, m.forkSafe);
    field(ar, m.workload);
    field(ar, m.programSize);
    field(ar, m.programHash);
    field(ar, m.warmupInstructions);
    field(ar, m.cycle);
    field(ar, m.retired);
    field(ar, m.faultPresent);
    field(ar, m.enginePresent);
}

/** Begin a tagged section; returns the body-start offset for the
 *  later length back-patch. */
std::size_t
beginSection(SnapshotWriter &w, std::uint32_t tag)
{
    field(w, tag);
    std::uint64_t len_placeholder = 0;
    field(w, len_placeholder);
    return w.size();
}

void
endSection(SnapshotWriter &w, std::size_t body_start)
{
    const std::uint64_t len = w.size() - body_start;
    for (std::size_t i = 0; i < 8; ++i) {
        w.buffer()[body_start - 8 + i] =
            static_cast<char>(len >> (8 * i));
    }
}

/** Read one section header and bounds-check its length. */
void
readSectionHeader(SnapshotReader &r, std::uint32_t expected_tag,
                  std::uint64_t &len)
{
    std::uint32_t tag = 0;
    field(r, tag);
    if (tag != expected_tag) {
        throw SnapshotError(SnapshotErrorKind::kFormat,
                            strprintf("unexpected section tag %08x "
                                      "(expected %08x)",
                                      tag, expected_tag));
    }
    field(r, len);
    if (len > r.remaining()) {
        throw SnapshotError(SnapshotErrorKind::kTruncated,
                            "section length exceeds payload");
    }
}

/** Run @p body and verify it consumed exactly the section length. */
template <class Fn>
void
readSection(SnapshotReader &r, std::uint32_t tag, Fn body)
{
    std::uint64_t len = 0;
    readSectionHeader(r, tag, len);
    const std::size_t start = r.offset();
    body();
    if (r.offset() - start != len) {
        throw SnapshotError(SnapshotErrorKind::kFormat,
                            strprintf("section %08x body size mismatch "
                                      "(%zu consumed, %llu framed)",
                                      tag, r.offset() - start,
                                      (unsigned long long)len));
    }
}

/** Digest of the config fields tagged at most @p widest
 *  (core/config_fields.hh): kMachine for the warmup digest, kVariant
 *  for the exact one. Each field is hashed as its dotted path and its
 *  value in the archive encoding, after the schema name. */
std::uint64_t
configDigest(const SimConfig &c, FieldTag widest)
{
    SnapshotWriter w;
    std::string schema = widest == FieldTag::kMachine
        ? "rab-snapshot-warmup-v2"
        : "rab-snapshot-exact-v2";
    field(w, schema);
    forEachConfigLeaf(c, [&](std::string path, auto value, auto tag) {
        if constexpr (decltype(tag)::value != FieldTag::kUnhashed) {
            if (decltype(tag)::value <= widest) {
                field(w, path);
                field(w, value);
            }
        }
    });
    return fnv1a64(w.take());
}

std::uint64_t
hashProgram(const Program &program)
{
    SnapshotWriter w;
    for (std::size_t i = 0; i < program.size(); ++i) {
        Uop u = program.at(static_cast<Pc>(i));
        field(w, u);
    }
    return fnv1a64(w.take());
}

/** Images hold one core's state: refuse a multi-core simulation. */
void
requireOneCore(const Simulation &sim)
{
    if (sim.config().numCores != 1) {
        throw SnapshotError(
            SnapshotErrorKind::kMismatch,
            strprintf("snapshot images hold one core; the simulation has %d",
                      sim.config().numCores));
    }
}

/** A fork-grade image must be captured outside any runahead interval,
 *  with no speculative runahead structure holding live state. The
 *  canonical warmup policy (baseline, no runahead) guarantees this;
 *  capture under a runahead config is forkSafe only when the warmup
 *  happens to end in normal mode with no engine instantiated. */
bool
computeForkSafe(Simulation &sim)
{
    const RunaheadController &ra = sim.core().runahead();
    return !ra.policy().anyRunahead() && !ra.inRunahead()
        && sim.memory().chainEngine() == nullptr;
}

SnapshotMeta
buildMeta(Simulation &sim)
{
    SnapshotMeta m;
    m.formatVersion = kSnapshotFormatVersion;
    m.configDigest = snapshotConfigDigest(sim.config());
    m.warmupDigest = snapshotWarmupDigest(sim.config());
    m.forkSafe = computeForkSafe(sim);
    m.workload = sim.program().name();
    m.programSize = sim.program().size();
    m.programHash = hashProgram(sim.program());
    m.warmupInstructions = sim.config().warmupInstructions;
    m.cycle = sim.core().cycle();
    m.retired = sim.core().retired();
    m.faultPresent = sim.faults() != nullptr;
    m.enginePresent = sim.memory().chainEngine() != nullptr;
    return m;
}

void
checkPayloadHeader(SnapshotReader &r)
{
    char magic[8];
    r.bytes(magic, sizeof(magic));
    if (std::memcmp(magic, kPayloadMagic, sizeof(magic)) != 0) {
        throw SnapshotError(SnapshotErrorKind::kMagic,
                            "not a snapshot payload");
    }
    std::uint32_t version = 0;
    field(r, version);
    if (version != kSnapshotFormatVersion) {
        throw SnapshotError(
            SnapshotErrorKind::kVersion,
            strprintf("unsupported snapshot format version %u "
                      "(this build reads version %u)",
                      version, kSnapshotFormatVersion));
    }
}

} // namespace

/* ------------------------------------------------------------------ */
/* Public API.                                                         */
/* ------------------------------------------------------------------ */

const char *
snapshotErrorKindName(SnapshotErrorKind kind)
{
    switch (kind) {
    case SnapshotErrorKind::kIo:
        return "io";
    case SnapshotErrorKind::kMagic:
        return "magic";
    case SnapshotErrorKind::kVersion:
        return "version";
    case SnapshotErrorKind::kCrc:
        return "crc";
    case SnapshotErrorKind::kTruncated:
        return "truncated";
    case SnapshotErrorKind::kMismatch:
        return "mismatch";
    case SnapshotErrorKind::kFormat:
        return "format";
    }
    return "unknown";
}

SnapshotError::SnapshotError(SnapshotErrorKind kind,
                             const std::string &detail)
    : std::runtime_error(strprintf("snapshot %s error: %s",
                                   snapshotErrorKindName(kind),
                                   detail.c_str())),
      kind_(kind)
{
}

std::uint64_t
snapshotConfigDigest(const SimConfig &config)
{
    return configDigest(config, FieldTag::kVariant);
}

std::uint64_t
snapshotWarmupDigest(const SimConfig &config)
{
    return configDigest(config, FieldTag::kMachine);
}

std::uint64_t
snapshotContentHash(const std::string &payload)
{
    return fnv1a64(payload);
}

std::string
captureSnapshot(Simulation &sim)
{
    requireOneCore(sim);
    SnapshotWriter w;
    w.bytes(kPayloadMagic, sizeof(kPayloadMagic));
    std::uint32_t version = kSnapshotFormatVersion;
    field(w, version);

    SnapshotMeta meta = buildMeta(sim);
    std::size_t at = beginSection(w, kSecMeta);
    ioMeta(w, meta);
    endSection(w, at);

    at = beginSection(w, kSecCore);
    SnapshotAccess::io(w, sim.core());
    endSection(w, at);

    at = beginSection(w, kSecVariant);
    SnapshotAccess::io(w, sim.core().runahead());
    SnapshotAccess::io(w, sim.core().chainAnalysis());
    endSection(w, at);

    at = beginSection(w, kSecMem);
    SnapshotAccess::io(w, sim.memory());
    endSection(w, at);

    at = beginSection(w, kSecEngine);
    bool engine_present = meta.enginePresent;
    field(w, engine_present);
    if (engine_present)
        SnapshotAccess::io(w, *sim.memory().chainEngine());
    endSection(w, at);

    at = beginSection(w, kSecFault);
    bool fault_present = meta.faultPresent;
    field(w, fault_present);
    if (fault_present)
        SnapshotAccess::io(w, *sim.faults());
    endSection(w, at);

    return w.take();
}

SnapshotMeta
peekSnapshotMeta(const std::string &payload)
{
    SnapshotReader r(payload);
    checkPayloadHeader(r);
    SnapshotMeta meta;
    readSection(r, kSecMeta, [&] { ioMeta(r, meta); });
    return meta;
}

void
restoreSnapshot(Simulation &sim, const std::string &payload,
                SnapshotRestoreMode mode)
{
    requireOneCore(sim);
    SnapshotReader r(payload);
    checkPayloadHeader(r);

    SnapshotMeta meta;
    readSection(r, kSecMeta, [&] { ioMeta(r, meta); });
    if (meta.formatVersion != kSnapshotFormatVersion) {
        throw SnapshotError(SnapshotErrorKind::kVersion,
                            strprintf("meta format version %u unknown",
                                      meta.formatVersion));
    }

    // Identity gates: the restoring simulation must run the same
    // program, and a config digest appropriate to the restore mode.
    if (meta.workload != sim.program().name()
        || meta.programSize != sim.program().size()
        || meta.programHash != hashProgram(sim.program())) {
        throw SnapshotError(
            SnapshotErrorKind::kMismatch,
            strprintf("snapshot is of workload '%s' (%llu uops), "
                      "simulation runs '%s' (%llu uops)",
                      meta.workload.c_str(),
                      (unsigned long long)meta.programSize,
                      sim.program().name().c_str(),
                      (unsigned long long)sim.program().size()));
    }
    if (mode == SnapshotRestoreMode::kExact) {
        if (meta.configDigest != snapshotConfigDigest(sim.config())) {
            throw SnapshotError(SnapshotErrorKind::kMismatch,
                                "config digest mismatch (exact restore "
                                "needs an identical configuration)");
        }
    } else {
        if (meta.warmupDigest != snapshotWarmupDigest(sim.config())) {
            throw SnapshotError(SnapshotErrorKind::kMismatch,
                                "warmup digest mismatch (fork restore "
                                "needs identical warmup-relevant "
                                "configuration)");
        }
        if (!meta.forkSafe) {
            throw SnapshotError(SnapshotErrorKind::kMismatch,
                                "image is not fork-safe (captured "
                                "under a runahead policy or inside a "
                                "runahead interval)");
        }
    }

    readSection(r, kSecCore, [&] { SnapshotAccess::io(r, sim.core()); });

    {
        std::uint64_t len = 0;
        readSectionHeader(r, kSecVariant, len);
        if (mode == SnapshotRestoreMode::kFork) {
            r.skip(static_cast<std::size_t>(len));
        } else {
            const std::size_t start = r.offset();
            SnapshotAccess::io(r, sim.core().runahead());
            SnapshotAccess::io(r, sim.core().chainAnalysis());
            if (r.offset() - start != len) {
                throw SnapshotError(SnapshotErrorKind::kFormat,
                                    "variant section size mismatch");
            }
        }
    }

    readSection(r, kSecMem,
                [&] { SnapshotAccess::io(r, sim.memory()); });

    {
        std::uint64_t len = 0;
        readSectionHeader(r, kSecEngine, len);
        if (mode == SnapshotRestoreMode::kFork) {
            r.skip(static_cast<std::size_t>(len));
        } else {
            const std::size_t start = r.offset();
            bool engine_present = false;
            field(r, engine_present);
            ChainEngine *engine = sim.memory().chainEngine();
            if (engine_present != (engine != nullptr)) {
                throw SnapshotError(
                    SnapshotErrorKind::kMismatch,
                    "chain-engine presence differs between snapshot "
                    "and simulation");
            }
            if (engine_present)
                SnapshotAccess::io(r, *engine);
            if (r.offset() - start != len) {
                throw SnapshotError(SnapshotErrorKind::kFormat,
                                    "engine section size mismatch");
            }
        }
    }

    readSection(r, kSecFault, [&] {
        bool fault_present = false;
        field(r, fault_present);
        if (fault_present != (sim.faults() != nullptr)) {
            throw SnapshotError(SnapshotErrorKind::kMismatch,
                                "fault-injector presence differs "
                                "between snapshot and simulation");
        }
        if (fault_present)
            SnapshotAccess::io(r, *sim.faults());
    });

    if (r.remaining() != 0) {
        throw SnapshotError(SnapshotErrorKind::kFormat,
                            "trailing bytes after final section");
    }
}

void
writeSnapshotFile(const std::string &path, const std::string &payload)
{
    SnapshotWriter w;
    w.bytes(kFileMagic, sizeof(kFileMagic));
    std::uint32_t version = kSnapshotFormatVersion;
    field(w, version);
    std::uint32_t crc = crc32(payload.data(), payload.size());
    field(w, crc);
    std::uint64_t len = payload.size();
    field(w, len);
    std::string framed = w.take();
    framed += payload;

    const std::string error = writeFileDurably(
        strprintf("%s.%d.tmp", path.c_str(), (int)::getpid()), path,
        framed);
    if (!error.empty())
        throw SnapshotError(SnapshotErrorKind::kIo, error);
}

std::string
readSnapshotFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw SnapshotError(SnapshotErrorKind::kIo,
                            strprintf("cannot open %s", path.c_str()));
    }
    std::string framed((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    if (in.bad()) {
        throw SnapshotError(SnapshotErrorKind::kIo,
                            strprintf("read error on %s", path.c_str()));
    }

    SnapshotReader r(framed);
    char magic[8];
    r.bytes(magic, sizeof(magic));
    if (std::memcmp(magic, kFileMagic, sizeof(magic)) != 0) {
        throw SnapshotError(SnapshotErrorKind::kMagic,
                            strprintf("%s is not a snapshot file",
                                      path.c_str()));
    }
    std::uint32_t version = 0;
    field(r, version);
    if (version != kSnapshotFormatVersion) {
        throw SnapshotError(
            SnapshotErrorKind::kVersion,
            strprintf("%s: unsupported snapshot version %u",
                      path.c_str(), version));
    }
    std::uint32_t crc = 0;
    field(r, crc);
    std::uint64_t len = 0;
    field(r, len);
    if (len != r.remaining()) {
        throw SnapshotError(
            SnapshotErrorKind::kTruncated,
            strprintf("%s: framed length %llu, %zu bytes present",
                      path.c_str(), (unsigned long long)len,
                      r.remaining()));
    }
    std::string payload = framed.substr(framed.size() - r.remaining());
    const std::uint32_t actual = crc32(payload.data(), payload.size());
    if (actual != crc) {
        throw SnapshotError(
            SnapshotErrorKind::kCrc,
            strprintf("%s: payload CRC %08x does not match framed %08x",
                      path.c_str(), actual, crc));
    }
    return payload;
}

} // namespace rab
