#include "memory/shared_memory.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "memory/memory_system.hh"
#include "runahead/chain_engine.hh"

namespace rab
{

std::string
perCoreStatName(int core, const std::string &name)
{
    return "core" + std::to_string(core) + "." + name;
}

SharedMemory::SharedMemory(const MemSysConfig &config, int num_cores)
    : numCores_(num_cores),
      llc_(config.llc), dram_(config.dram),
      prefetcher_(config.prefetcher, config.llc.lineBytes),
      stridePf_(config.stridePrefetcher, config.llc.lineBytes),
      ghbPf_(config.ghbPrefetcher, config.llc.lineBytes),
      heldNow_(static_cast<std::size_t>(num_cores), 0),
      mshrPeak_(static_cast<std::size_t>(num_cores)),
      memQueueEntries_(config.memQueueEntries),
      runaheadQueueReserve_(config.runaheadQueueReserve),
      memRetryLimit_(config.memRetryLimit),
      memTimeoutCycles_(config.memTimeoutCycles),
      memRetryBackoffCycles_(config.memRetryBackoffCycles),
      prefetchEnabled_(config.prefetcher.enabled),
      prefetcherKind_(static_cast<int>(config.prefetcherKind))
{
    if (num_cores < 1)
        panic("SharedMemory: num_cores must be >= 1");
    cores_.reserve(static_cast<std::size_t>(num_cores));
    // Sized once for the worst case any prefetcher emits per access;
    // issuePrefetches() drains it in place, so this is the only
    // allocation the candidate path ever performs.
    prefetchCandidates_.reserve(64);
}

SharedMemory::~SharedMemory() = default;

void
SharedMemory::attach(MemorySystem *core)
{
    if (static_cast<int>(cores_.size()) >= numCores_)
        panic("SharedMemory: more cores attached than numCores");
    cores_.push_back(core);
}

MemorySystem &
SharedMemory::ownerOf(Addr line_addr) const
{
    // Fault-corrupted runahead uops can carry arbitrary 64-bit
    // addresses whose top bits name no attached core; clamp those
    // deterministically instead of panicking (the back-invalidation
    // becomes a harmless no-op on the clamped core's L1s, exactly the
    // pre-split single-core behaviour).
    const auto id =
        static_cast<std::size_t>(line_addr >> kCoreAddrShift);
    if (id >= cores_.size()) {
        // Clamps indicate corrupted state upstream of the namespacing
        // boundary; they must never happen silently (satellite of the
        // attached-mode masking fix — see MemorySystem::access).
        ++ownerClamps;
        return *cores_[id % cores_.size()];
    }
    return *cores_[id];
}

void
SharedMemory::regComponentStats(StatGroup *parent)
{
    llc_.regStats(parent);
    dram_.regStats(parent);
    prefetcher_.regStats(parent);
    stridePf_.regStats(parent);
    ghbPf_.regStats(parent);
}

void
SharedMemory::regSharedStats(StatGroup *parent)
{
    parent->addCounter("cross_core_evictions", &crossCoreEvictions,
                       "LLC victims evicted by a different core");
    parent->addCounter("owner_clamps", &ownerClamps,
                       "line owners clamped: core-id bits named a "
                       "nonexistent core");
    for (int i = 0; i < numCores_; ++i) {
        parent->addCounter(
            perCoreStatName(i, "mshr_peak"),
            &mshrPeak_[static_cast<std::size_t>(i)],
            "peak shared memory-queue slots held at once");
    }
    regComponentStats(parent);
}

void
SharedMemory::trainPrefetcher(AccessType type, Pc pc, Addr line_addr,
                              bool was_miss)
{
    if (!prefetchEnabled_)
        return;
    if (type != AccessType::kLoad && type != AccessType::kStore)
        return; // Train on data traffic only.
    const auto kind = static_cast<PrefetcherKind>(prefetcherKind_);
    if (kind == PrefetcherKind::kStream)
        prefetcher_.observe(line_addr, was_miss, prefetchCandidates_);
    else if (kind == PrefetcherKind::kStride)
        stridePf_.observe(pc, line_addr, prefetchCandidates_);
    else
        ghbPf_.observe(pc, line_addr, prefetchCandidates_);
}

void
SharedMemory::notifyPrefetchUseful()
{
    const auto kind = static_cast<PrefetcherKind>(prefetcherKind_);
    if (kind == PrefetcherKind::kStream)
        prefetcher_.notifyUseful();
    else if (kind == PrefetcherKind::kStride)
        stridePf_.notifyUseful();
    else
        ghbPf_.notifyUseful();
}

void
SharedMemory::notifyPrefetchUnused()
{
    const auto kind = static_cast<PrefetcherKind>(prefetcherKind_);
    if (kind == PrefetcherKind::kStream)
        prefetcher_.notifyUnused();
    else if (kind == PrefetcherKind::kStride)
        stridePf_.notifyUnused();
    else
        ghbPf_.notifyUnused();
}

void
SharedMemory::pruneOutstanding(Cycle now)
{
    while (!outstanding_.empty() && outstanding_.front().ready <= now) {
        --heldNow_[static_cast<std::size_t>(outstanding_.front().core)];
        std::pop_heap(outstanding_.begin(), outstanding_.end(),
                      OutstandingLater{});
        outstanding_.pop_back();
    }
}

void
SharedMemory::prunePending(PendingMap &pending, Cycle now)
{
    // Lazy cleanup: bound the map size without per-cycle sweeps.
    if (pending.size() < 4096)
        return;
    // rablint: order-independent (erase-only sweep; which entries
    // survive depends on their deadlines, never on visit order)
    for (auto it = pending.begin(); it != pending.end();) {
        if (it->second <= now)
            it = pending.erase(it);
        else
            ++it;
    }
}

void
SharedMemory::addPendingFill(Addr line_addr, Cycle ready)
{
    llcPending_[line_addr] = ready;
    if (ready > llcPendingMax_)
        llcPendingMax_ = ready;
}

void
SharedMemory::pushOutstanding(MemorySystem &core, Cycle ready)
{
    const auto id = static_cast<std::size_t>(core.coreId());
    // Slots held by the *other* cores at this admission: the shared
    // MSHR occupancy this core had to fit around.
    core.sharedMshrPeersHeld += outstanding_.size() - heldNow_[id];
    outstanding_.push_back({ready, core.coreId()});
    std::push_heap(outstanding_.begin(), outstanding_.end(),
                   OutstandingLater{});
    ++heldNow_[id];
    // Monotone peak: counters only grow, so the peak is expressed as
    // the increments that raised it.
    if (heldNow_[id] > mshrPeak_[id].value())
        mshrPeak_[id] += heldNow_[id] - mshrPeak_[id].value();
}

std::size_t
SharedMemory::outstandingMisses(Cycle now)
{
    pruneOutstanding(now);
    return outstanding_.size();
}

Cycle
SharedMemory::nextEventCycle(Cycle now) const
{
    Cycle next = 0;
    for (const OutstandingMiss &miss : outstanding_) {
        if (miss.ready > now && (next == 0 || miss.ready < next))
            next = miss.ready;
    }
    const Cycle bank_free = dram_.nextBankFreeCycle(now);
    if (bank_free > now && (next == 0 || bank_free < next))
        next = bank_free;
    return next;
}

void
SharedMemory::handleEviction(const Eviction &ev, MemorySystem &accessor,
                             Cycle now)
{
    if (ev.prefetchUnused)
        notifyPrefetchUnused();
    // Inclusive hierarchy: back-invalidate the owning core's L1
    // copies. The owner is encoded in the namespaced line address.
    MemorySystem &owner = ownerOf(ev.lineAddr);
    const bool l1_dirty = owner.l1d().invalidate(ev.lineAddr);
    owner.l1i().invalidate(ev.lineAddr);
    if (ChainEngine *engine = owner.chainEngine()) {
        // Engine fills evicted before any demand reference cost their
        // chain utility.
        engine->noteEvicted(ev.lineAddr);
    }
    if (&owner != &accessor) {
        ++owner.llcEvictedByOthers;
        ++crossCoreEvictions;
    }
    if (ev.dirty || l1_dirty)
        dram_.access(ev.lineAddr, now, /*is_write=*/true);
}

Cycle
SharedMemory::accessLlc(MemorySystem &core, AccessType type,
                        Addr line_addr, Cycle llc_time, Cycle now,
                        AccessResult &result, bool &rejected,
                        bool runahead, Pc pc)
{
    rejected = false;

    // Merge with an in-flight LLC fill if one exists.
    if (llcPendingMax_ > now) {
        const auto pending_it = llcPending_.find(line_addr);
        if (pending_it != llcPending_.end()
            && pending_it->second > now) {
            ++core.mshrMerges;
            trainPrefetcher(type, pc, line_addr, /*was_miss=*/false);
            return std::max(pending_it->second, llc_time);
        }
    }

    const CacheLookup lookup =
        llc_.access(line_addr, type == AccessType::kStore);
    if (lookup.hit) {
        if (lookup.wasPrefetched) {
            result.prefetchHit = true;
            notifyPrefetchUseful();
        }
        trainPrefetcher(type, pc, line_addr, /*was_miss=*/false);
        return llc_time + llc_.config().latency;
    }

    // LLC miss: needs a memory queue slot. Runahead misses may not
    // take the last runaheadQueueReserve slots (demand priority).
    pruneOutstanding(now);
    std::size_t limit = static_cast<std::size_t>(memQueueEntries_);
    if (runahead && runaheadQueueReserve_ > 0) {
        limit -= static_cast<std::size_t>(
            std::min(runaheadQueueReserve_, memQueueEntries_));
    }
    if (outstanding_.size() >= limit) {
        ++core.queueRejects;
        if (outstanding_.size()
            > heldNow_[static_cast<std::size_t>(core.coreId())])
            ++core.queueRejectsContended;
        rejected = true;
        return 0;
    }

    // Injected transient stall window: the queue refuses new misses
    // until the window closes; the core retries like a full queue.
    FaultInjector *faults = core.faultInjector();
    if (faults && faults->memQueueStalled(now)) {
        ++core.queueFaultStalls;
        ++core.queueRejects;
        rejected = true;
        return 0;
    }

    // Injected response drops: model a timeout + bounded retry with
    // linear backoff. The whole outcome is decided up front (before
    // any DRAM/stat side effects) so a failed access leaves the
    // hierarchy untouched and the core simply retries later.
    Cycle fault_delay = 0;
    if (faults) {
        int attempt = 0;
        while (faults->dropDramResponse()) {
            ++core.memTimeouts;
            if (attempt >= memRetryLimit_) {
                ++core.memRetryFailures;
                result.faulted = true;
                rejected = true;
                return 0;
            }
            ++attempt;
            ++core.memRetries;
            fault_delay += memTimeoutCycles_
                + static_cast<Cycle>(attempt) * memRetryBackoffCycles_;
        }
        fault_delay += faults->dramDelay();
    }

    if (type != AccessType::kPrefetch) {
        ++core.llcDemandMisses;
        if (type == AccessType::kLoad)
            ++core.llcLoadMisses;
        trainPrefetcher(type, pc, line_addr, /*was_miss=*/true);
    }

    const DramResult dram_result =
        dram_.access(line_addr, llc_time + llc_.config().latency,
                     /*is_write=*/false);
    if (dram_result.queueWait > 0) {
        ++core.bankConflicts;
        core.bankConflictWaitCycles += dram_result.queueWait;
    }
    const Cycle ready = dram_result.readyCycle + fault_delay;
    addPendingFill(line_addr, ready);
    pushOutstanding(core, ready);
    prunePending(llcPending_, now);

    const Eviction ev = llc_.insert(line_addr,
                                    type == AccessType::kStore,
                                    type == AccessType::kPrefetch);
    if (ev.valid)
        handleEviction(ev, core, now);
    return ready;
}

void
SharedMemory::issuePrefetches(MemorySystem &core, Cycle now)
{
    if (prefetchCandidates_.empty())
        return;
    // Drain in place: nothing in the loop body trains the prefetcher,
    // so the candidate list cannot grow under us, and clearing (rather
    // than the old swap-with-a-temporary) preserves the buffer's
    // capacity across accesses instead of reallocating it every time.
    for (const Addr line_addr : prefetchCandidates_) {
        if (llc_.probe(line_addr))
            continue;
        const auto it = llcPending_.find(line_addr);
        if (it != llcPending_.end() && it->second > now)
            continue;
        pruneOutstanding(now);
        if (outstanding_.size()
            >= static_cast<std::size_t>(memQueueEntries_)) {
            break; // Queue full: drop remaining prefetches.
        }
        const DramResult dram_result =
            dram_.access(line_addr, now, /*is_write=*/false);
        addPendingFill(line_addr, dram_result.readyCycle);
        pushOutstanding(core, dram_result.readyCycle);
        ++core.prefetchesIssued;
        const Eviction ev = llc_.insert(line_addr, /*is_write=*/false,
                                        /*is_prefetch=*/true);
        if (ev.valid)
            handleEviction(ev, core, now);
    }
    prefetchCandidates_.clear();
}

void
SharedMemory::enginePrefetch(MemorySystem &core, Addr line_addr,
                             Cycle now, EnginePrefetchResult &out)
{
    // Already resident: the engine can consume the value after an LLC
    // round trip, and no fill is started.
    if (llc_.probe(line_addr)) {
        out.accepted = true;
        out.readyCycle = now + llc_.config().latency;
        return;
    }
    // In flight (demand, prefetcher, or an earlier engine fill):
    // merge, like the MSHR path does for demand traffic.
    const auto it = llcPending_.find(line_addr);
    if (it != llcPending_.end() && it->second > now) {
        out.accepted = true;
        out.merged = true;
        out.readyCycle = it->second;
        return;
    }
    // Engine traffic is speculative: it may not take the memory-queue
    // slots reserved for demand misses.
    pruneOutstanding(now);
    std::size_t limit = static_cast<std::size_t>(memQueueEntries_);
    limit -= static_cast<std::size_t>(
        std::min(runaheadQueueReserve_, memQueueEntries_));
    if (outstanding_.size() >= limit)
        return; // Rejected; the engine backs off and retries.

    const DramResult dram_result =
        dram_.access(line_addr, now, /*is_write=*/false);
    addPendingFill(line_addr, dram_result.readyCycle);
    pushOutstanding(core, dram_result.readyCycle);
    prunePending(llcPending_, now);
    const Eviction ev = llc_.insert(line_addr, /*is_write=*/false,
                                    /*is_prefetch=*/true);
    if (ev.valid)
        handleEviction(ev, core, now);
    out.accepted = true;
    out.issued = true;
    out.readyCycle = dram_result.readyCycle;
}

std::uint64_t
SharedMemory::dramRequests() const
{
    return dram_.reads.value() + dram_.writes.value();
}

} // namespace rab
