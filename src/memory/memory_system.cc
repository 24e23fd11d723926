#include "memory/memory_system.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"
#include "common/profiler.hh"
#include "fault/fault_injector.hh"
#include "runahead/chain_engine.hh"

namespace rab
{

MemorySystem::MemorySystem(const MemSysConfig &config,
                           SharedMemory &shared, int core_id)
    : config_(config), l1i_(config.l1i), l1d_(config.l1d),
      shared_(&shared), coreId_(core_id),
      addrBase_(static_cast<Addr>(core_id) << kCoreAddrShift),
      multiCore_(shared.numCores() > 1), statGroup_("mem")
{
    if (core_id < 0 || core_id >= shared.numCores())
        panic("MemorySystem: core id %d outside shared range %d",
              core_id, shared.numCores());
    shared_->attach(this);
    regStats();
}

MemorySystem::~MemorySystem() = default;

void
MemorySystem::regStats()
{
    statGroup_.addCounter("demand_loads", &demandLoads);
    statGroup_.addCounter("demand_stores", &demandStores);
    statGroup_.addCounter("llc_demand_misses", &llcDemandMisses);
    statGroup_.addCounter("llc_load_misses", &llcLoadMisses);
    statGroup_.addCounter("queue_rejects", &queueRejects);
    statGroup_.addCounter("prefetches_issued", &prefetchesIssued);
    statGroup_.addCounter("mshr_merges", &mshrMerges);
    statGroup_.addCounter("mem_retries", &memRetries);
    statGroup_.addCounter("mem_timeouts", &memTimeouts);
    statGroup_.addCounter("mem_retry_failures", &memRetryFailures);
    statGroup_.addCounter("queue_fault_stalls", &queueFaultStalls);
    if (multiCore_) {
        // Contention counters exist only in the multi-core stat
        // payload; the single-core layout predates them and is pinned
        // by the N=1 differential test.
        statGroup_.addCounter("llc_evicted_by_others", &llcEvictedByOthers);
        statGroup_.addCounter("bank_conflicts", &bankConflicts);
        statGroup_.addCounter("bank_conflict_wait_cycles",
                              &bankConflictWaitCycles);
        statGroup_.addCounter("shared_mshr_peers_held", &sharedMshrPeersHeld);
        statGroup_.addCounter("queue_rejects_contended",
                              &queueRejectsContended);
        statGroup_.addCounter("addr_high_masked", &addrHighMasked);
    }
    l1i_.regStats(&statGroup_);
    l1d_.regStats(&statGroup_);
    // A one-core chip keeps the shared components under "mem"; a
    // larger chip publishes them once, in the simulation's "shared"
    // group (SharedMemory::regSharedStats).
    if (!multiCore_)
        shared_->regComponentStats(&statGroup_);
}

std::size_t
MemorySystem::outstandingMisses(Cycle now)
{
    return shared_->outstandingMisses(now);
}

Cycle
MemorySystem::nextEventCycle(Cycle now) const
{
    return shared_->nextEventCycle(now);
}

bool
MemorySystem::dataOnChip(Addr addr, Cycle now) const
{
    addr = rebase(addr);
    if (shared_->llcPendingMax_ > now) {
        const Addr line = shared_->llc_.lineAddr(addr);
        const auto it = shared_->llcPending_.find(line);
        if (it != shared_->llcPending_.end() && it->second > now)
            return false;
    }
    return l1d_.probe(addr) || shared_->llc_.probe(addr);
}

bool
MemorySystem::missInFlight(Addr addr, Cycle now) const
{
    if (shared_->llcPendingMax_ <= now)
        return false;
    const Addr line = shared_->llc_.lineAddr(rebase(addr));
    const auto it = shared_->llcPending_.find(line);
    return it != shared_->llcPending_.end() && it->second > now;
}

AccessResult
MemorySystem::access(AccessType type, Addr addr, Cycle now,
                     bool runahead)
{
    ProfScope prof(ProfPhase::kMemAccess);
    AccessResult result;
    if (engine_)
        engine_->advanceTo(now);
    if (multiCore_ && (addr >> kCoreAddrShift) != 0) {
        // Namespacing boundary: an address already using the core-id
        // bits (runahead garbage values, corrupted state) would alias
        // another core's slice after rebasing. Mask and count it.
        ++addrHighMasked;
        addr &= kCoreAddrMask;
    }
    addr = rebase(addr);
    Cache &l1 = type == AccessType::kInstFetch ? l1i_ : l1d_;
    L1Fills &fills = type == AccessType::kInstFetch ? l1iFills_ : l1dFills_;
    const Addr line_addr = l1.lineAddr(addr);

    if (type == AccessType::kLoad)
        ++demandLoads;
    else if (type == AccessType::kStore)
        ++demandStores;

    if (type == AccessType::kPrefetch) {
        panic("MemorySystem::access: prefetches are issued internally");
    }

    // L1 lookup.
    const CacheLookup l1_lookup =
        l1.access(addr, type == AccessType::kStore);
    if (l1_lookup.hit) {
        // The tags may hit while the fill is still in flight; that is an
        // MSHR merge, not a completed hit. The watermark guard keeps
        // the hash find off the steady-state hit path (one find per
        // fetched uop otherwise).
        PendingMap::const_iterator it;
        if (fills.max > now
            && (it = fills.ready.find(line_addr)) != fills.ready.end()
            && it->second > now) {
            ++mshrMerges;
            result.l1Miss = true;
            result.readyCycle = it->second;
            result.pendingMiss = missInFlight(addr, now);
        } else {
            result.readyCycle = now + l1.config().latency;
        }
        shared_->issuePrefetches(*this, now);
        return result;
    }

    result.l1Miss = true;

    if (engine_) {
        // Timeliness crediting: was this demand miss covered by a
        // recent engine fill?
        engine_->noteDemandAccess(shared_->llc_.lineAddr(addr), now);
    }

    // L1 miss: go to the LLC after the L1 lookup latency.
    const Cycle llc_time = now + l1.config().latency;
    bool rejected = false;
    const Cycle pre_misses = llcDemandMisses.value();
    const Cycle ready = shared_->accessLlc(
        *this, type, shared_->llc_.lineAddr(addr), llc_time, now,
        result, rejected, runahead);
    if (rejected) {
        result.rejected = true;
        return result;
    }
    result.llcMiss = llcDemandMisses.value() != pre_misses;
    result.pendingMiss = !result.llcMiss && missInFlight(addr, now);

    // Fill L1 (write-allocate). Track availability for merges.
    const Eviction ev = l1.insert(addr, type == AccessType::kStore);
    if (ev.valid && ev.dirty) {
        // Write the victim back into the (inclusive) LLC.
        shared_->llc_.access(ev.lineAddr, /*is_write=*/true);
    }
    fills.expire(now);
    fills.add(line_addr, ready);
    result.readyCycle = ready;

    shared_->issuePrefetches(*this, now);
    return result;
}

void
MemorySystem::L1Fills::add(Addr line, Cycle cycle)
{
    ready[line] = cycle;
    heap.emplace_back(cycle, line);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (cycle > max)
        max = cycle;
}

void
MemorySystem::L1Fills::expire(Cycle now)
{
    while (!heap.empty() && heap.front().first <= now) {
        const Addr line = heap.front().second;
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        heap.pop_back();
        // A refilled line keeps its later cycle until its own entry
        // expires.
        const auto it = ready.find(line);
        if (it != ready.end() && it->second <= now)
            ready.erase(it);
    }
}

void
MemorySystem::L1Fills::rebuildHeap()
{
    heap.clear();
    heap.reserve(ready.size());
    // rablint: order-independent (the heap orders its entries by
    // cycle; equal cycles expire at the same access whatever their
    // order)
    for (const auto &[line, cycle] : ready)
        heap.emplace_back(cycle, line);
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
}

std::uint64_t
MemorySystem::dramRequests() const
{
    return shared_->dramRequests();
}

void
MemorySystem::enableChainEngine(const ChainEngineConfig &config,
                                const FunctionalMemory *func_mem)
{
    engine_ = std::make_unique<ChainEngine>(config, this, func_mem);
    if (config.enabled)
        engine_->regStats(&statGroup_);
}

EnginePrefetchResult
MemorySystem::enginePrefetchLine(Addr vaddr, Cycle now)
{
    // Corrupted chains compute arbitrary 64-bit addresses; mask them
    // below the namespacing boundary so an engine fill can never leave
    // this core's slice (the checker's containment audit relies on
    // this).
    vaddr &= kCoreAddrMask;
    const Addr line = shared_->llc_.lineAddr(rebase(vaddr));
    EnginePrefetchResult out;
    out.line = line;
    shared_->enginePrefetch(*this, line, now, out);
    return out;
}

} // namespace rab
