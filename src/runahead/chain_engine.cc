#include "runahead/chain_engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "isa/functional.hh"
#include "memory/memory_system.hh"

namespace rab
{

ChainEngine::ChainEngine(const ChainEngineConfig &config,
                         MemorySystem *mem,
                         const FunctionalMemory *func_mem)
    : config_(config), mem_(mem), funcMem_(func_mem),
      statGroup_("engine")
{
    if (config_.slots < 1)
        config_.slots = 1;
    if (config_.utilityMax < config_.utilityInit)
        config_.utilityMax = config_.utilityInit;
    slots_.resize(static_cast<std::size_t>(config_.slots));
    recent_.reserve(config_.recentEntries);
}

void
ChainEngine::regStats(StatGroup *parent)
{
    statGroup_.addCounter("chains_shipped", &chainsShipped);
    statGroup_.addCounter("chain_replacements", &chainReplacements);
    statGroup_.addCounter("uops_executed", &uopsExecuted);
    statGroup_.addCounter("loads_executed", &loadsExecuted);
    statGroup_.addCounter("store_uops_seen", &storeUopsSeen);
    statGroup_.addCounter("stores_contained", &storesContained);
    statGroup_.addCounter("prefetches_issued", &prefetchesIssued);
    statGroup_.addCounter("prefetches_timely", &prefetchesTimely);
    statGroup_.addCounter("prefetches_late", &prefetchesLate);
    statGroup_.addCounter("prefetches_unused", &prefetchesUnused);
    statGroup_.addCounter("iterations", &iterations);
    statGroup_.addCounter("deschedules", &deschedules);
    statGroup_.addCounter("queue_stalls", &queueStalls);
    statGroup_.addCounter("pacing_stalls", &pacingStalls);
    parent->addChild(&statGroup_);
}

int
ChainEngine::pickShipSlot(Pc chain_pc)
{
    const int n = static_cast<int>(slots_.size());
    // Same chain PC: refresh in place, keeping its steering history.
    for (int i = 0; i < n; ++i) {
        if (slots_[static_cast<std::size_t>(i)].valid
            && slots_[static_cast<std::size_t>(i)].chainPc == chain_pc)
            return i;
    }
    for (int i = 0; i < n; ++i) {
        if (!slots_[static_cast<std::size_t>(i)].valid)
            return i;
    }
    // Evict the lowest-utility slot (parked slots sort below running
    // ones by construction — their utility already decayed).
    int victim = 0;
    for (int i = 1; i < n; ++i) {
        if (slots_[static_cast<std::size_t>(i)].utility
            < slots_[static_cast<std::size_t>(victim)].utility)
            victim = i;
    }
    ++chainReplacements;
    return victim;
}

void
ChainEngine::shipChain(
    Pc chain_pc, const DependenceChain &chain,
    const std::array<std::uint64_t, kNumArchRegs> &regs, Cycle now)
{
    if (!active() || chain.empty())
        return;
    // Catch up under the pre-ship state first: the chain arrives at
    // core cycle `now`, not retroactively.
    advanceTo(now);

    Slot &s = slots_[static_cast<std::size_t>(pickShipSlot(chain_pc))];
    const bool same_pc = s.valid && s.chainPc == chain_pc;
    ++chainsShipped;
    if (same_pc && s.running && chainsEqual(s.chain, chain)) {
        // The engine is already looping this exact chain, typically
        // ahead of the core's committed frontier. Keep its progressed
        // register state — reseeding from committed values would drag
        // the loop back inside the demand stream, and it would spend
        // its whole life catching up. The re-ship just reaffirms the
        // chain's usefulness.
        s.utility = std::max(s.utility, config_.utilityInit);
        return;
    }
    s.valid = true;
    s.running = true;
    s.chainPc = chain_pc;
    s.chain = chain;
    s.regs = regs;
    s.regReady.fill(0);
    s.storeBuf.clear();
    s.index = 0;
    s.utility = same_pc ? std::max(s.utility, config_.utilityInit)
                        : config_.utilityInit;
    s.stallUntil = now;
    s.fillsThisIteration = 0;
    s.idleIterations = 0;
}

Cycle
ChainEngine::nextRunnableCycle() const
{
    Cycle next = 0;
    for (const Slot &s : slots_) {
        if (!s.valid || !s.running || s.chain.empty())
            continue;
        if (next == 0 || s.stallUntil < next)
            next = s.stallUntil;
    }
    return next;
}

void
ChainEngine::advanceTo(Cycle now)
{
    if (!active() || now <= cycle_) {
        if (now > cycle_)
            cycle_ = now;
        return;
    }
    const std::size_t n = slots_.size();
    while (cycle_ < now) {
        ageRecentFills(cycle_);
        // Dataflow issue: up to uopsPerCycle ready uops per engine
        // cycle, round-robin over runnable slots, with same-cycle
        // forwarding. A uop that stalls (sources in flight, queue
        // full, pacing) parks its slot past cycle_ and costs no issue
        // bandwidth.
        int issued = 0;
        while (issued < config_.uopsPerCycle) {
            Slot *pick = nullptr;
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t i = (nextSlotRr_ + k) % n;
                Slot &s = slots_[i];
                if (!s.valid || !s.running || s.chain.empty()
                    || s.stallUntil > cycle_)
                    continue;
                nextSlotRr_ = (i + 1) % n;
                pick = &s;
                break;
            }
            if (!pick)
                break;
            if (executeUop(*pick, cycle_))
                ++issued;
        }
        if (issued > 0) {
            ++cycle_;
            continue;
        }
        // Every slot stalled or parked: jump straight to the next
        // wake-up (or the target), never past it.
        const Cycle next = nextRunnableCycle();
        cycle_ = (next == 0 || next > now) ? now : next;
    }
    ageRecentFills(cycle_);
}

bool
ChainEngine::executeUop(Slot &s, Cycle now)
{
    const ChainOp &op = s.chain[s.index];
    const Uop &uop = op.sop;
    const auto src = [&](ArchReg r) -> std::uint64_t {
        return r == kNoArchReg || r >= kNumArchRegs
            ? 0
            : s.regs[static_cast<std::size_t>(r)];
    };
    const auto readyAt = [&](ArchReg r) -> Cycle {
        return r == kNoArchReg || r >= kNumArchRegs
            ? 0
            : s.regReady[static_cast<std::size_t>(r)];
    };

    // Dataflow stall: a uop issues only once every source value has
    // landed. Loads whose values nothing downstream consumes never
    // block the loop, so gather chains run ahead of the demand
    // stream; a pointer chase stalls right here on the address
    // register until its producing fill completes.
    const Cycle ready = std::max(readyAt(uop.src1), readyAt(uop.src2));
    if (ready > now) {
        s.stallUntil = ready;
        return false;
    }

    switch (uop.op) {
    case Opcode::kLoad: {
        const Addr addr = effectiveAddr(uop, src(uop.src1));
        std::uint64_t value = 0;
        Cycle value_ready = now;
        bool forwarded = false;
        // Slot-local store forwarding completes without touching the
        // hierarchy at all.
        for (auto it = s.storeBuf.rbegin(); it != s.storeBuf.rend();
             ++it) {
            if ((it->addr & ~Addr{7}) == (addr & ~Addr{7})) {
                value = it->value;
                forwarded = true;
                break;
            }
        }
        if (!forwarded) {
            if (recent_.size() >= config_.recentEntries) {
                // Pacing governor: the recent-fill table is a credit
                // window — at most recentEntries fills may be awaiting
                // their demand reference. A full table means the loop
                // is that many lines ahead of the core; pausing here
                // bounds LLC pollution and lets demand drain credits.
                ++pacingStalls;
                s.stallUntil =
                    now + static_cast<Cycle>(config_.queueRetryCycles);
                return false;
            }
            const EnginePrefetchResult res =
                mem_->enginePrefetchLine(addr, now);
            if (!res.accepted) {
                // Queue full: demand traffic owns the reserved slots.
                ++queueStalls;
                s.stallUntil =
                    now + static_cast<Cycle>(config_.queueRetryCycles);
                return false;
            }
            if (res.issued) {
                ++prefetchesIssued;
                ++s.fillsThisIteration;
                recordFill(res.line, res.readyCycle, now,
                           static_cast<int>(&s - slots_.data()));
            } else if (res.merged) {
                // Joining an in-flight fill means the loop is at the
                // demand frontier, about to overtake it — that is
                // progress, not idleness.
                ++s.fillsThisIteration;
            }
            // Runahead value idiom: the destination takes the
            // architectural value now; the scoreboard defers its
            // *consumability* to the fill's ready cycle.
            value = funcMem_->read(addr);
            value_ready = std::max(res.readyCycle, now + 1);
        }
        if (uop.hasDest() && uop.dest < kNumArchRegs) {
            s.regs[static_cast<std::size_t>(uop.dest)] = value;
            s.regReady[static_cast<std::size_t>(uop.dest)] =
                value_ready;
        }
        ++loadsExecuted;
        break;
    }
    case Opcode::kStore: {
        // Prefetch-only containment: stores live and die in the slot
        // buffer; the functional image is const from here.
        const Addr addr = effectiveAddr(uop, src(uop.src1));
        if (s.storeBuf.size()
            >= static_cast<std::size_t>(config_.storeBufEntries))
            s.storeBuf.erase(s.storeBuf.begin());
        s.storeBuf.push_back({addr, src(uop.src2)});
        ++storeUopsSeen;
        ++storesContained;
        break;
    }
    case Opcode::kBranch:
    case Opcode::kJump:
        // Algorithm 1 never includes control uops; a fault-corrupted
        // chain might. The engine loops linearly regardless.
        break;
    case Opcode::kNop:
        break;
    default: {
        if (uop.hasDest() && uop.dest < kNumArchRegs) {
            s.regs[static_cast<std::size_t>(uop.dest)] =
                evalAlu(uop, src(uop.src1), src(uop.src2));
            // Same-cycle forwarding: consumable by the next issue slot
            // this cycle (serial ALU chains run at the issue width).
            s.regReady[static_cast<std::size_t>(uop.dest)] = now;
        }
        break;
    }
    }
    ++uopsExecuted;
    ++s.index;
    if (s.index >= s.chain.size())
        finishIteration(s);
    return true;
}

void
ChainEngine::finishIteration(Slot &s)
{
    s.index = 0;
    s.storeBuf.clear();
    ++iterations;
    if (s.fillsThisIteration == 0) {
        // ALU-only or fully cache-resident loop: it produces nothing,
        // so park it before it burns engine cycles forever.
        if (++s.idleIterations >= config_.idleIterationLimit)
            deschedule(s);
    } else {
        s.idleIterations = 0;
    }
    s.fillsThisIteration = 0;
}

void
ChainEngine::deschedule(Slot &s)
{
    if (!s.running)
        return;
    s.running = false;
    ++deschedules;
}

void
ChainEngine::bumpUtility(int slot, int delta)
{
    if (slot < 0 || slot >= static_cast<int>(slots_.size()))
        return;
    Slot &s = slots_[static_cast<std::size_t>(slot)];
    if (!s.valid)
        return;
    s.utility = std::clamp(s.utility + delta, 0, config_.utilityMax);
    if (s.utility == 0)
        deschedule(s);
}

void
ChainEngine::recordFill(Addr line, Cycle ready, Cycle now, int slot)
{
    if (recent_.size() >= config_.recentEntries) {
        // Table full: the oldest fill retires uncredited.
        ++prefetchesUnused;
        bumpUtility(recent_.front().slot, -1);
        recent_.erase(recent_.begin());
    }
    recent_.push_back({line, ready, now, slot});
}

void
ChainEngine::ageRecentFills(Cycle now)
{
    const auto ttl = static_cast<Cycle>(config_.recentTtlCycles);
    while (!recent_.empty()
           && recent_.front().issuedCycle + ttl <= now) {
        ++prefetchesUnused;
        bumpUtility(recent_.front().slot, -1);
        recent_.erase(recent_.begin());
    }
}

void
ChainEngine::noteDemandAccess(Addr line, Cycle now)
{
    if (!active() || recent_.empty())
        return;
    for (auto it = recent_.begin(); it != recent_.end(); ++it) {
        if (it->line != line)
            continue;
        if (now >= it->readyCycle) {
            ++prefetchesTimely;
            bumpUtility(it->slot, +1);
        } else {
            ++prefetchesLate;
        }
        recent_.erase(it);
        return;
    }
}

void
ChainEngine::noteEvicted(Addr line)
{
    if (!active() || recent_.empty())
        return;
    for (auto it = recent_.begin(); it != recent_.end(); ++it) {
        if (it->line != line)
            continue;
        ++prefetchesUnused;
        bumpUtility(it->slot, -1);
        recent_.erase(it);
        return;
    }
}

bool
ChainEngine::auditContainment(std::string *why) const
{
    if (storeUopsSeen.value() != storesContained.value()) {
        if (why) {
            *why = strprintf(
                "engine stores escaped containment: %llu seen, %llu "
                "contained",
                (unsigned long long)storeUopsSeen.value(),
                (unsigned long long)storesContained.value());
        }
        return false;
    }
    const auto line_mask =
        static_cast<Addr>(mem_->lineBytes() - 1);
    const auto core = static_cast<Addr>(mem_->coreId());
    for (const RecentFill &f : recent_) {
        if ((f.line & line_mask) != 0) {
            if (why)
                *why = strprintf("engine fill 0x%llx not line-aligned",
                                 (unsigned long long)f.line);
            return false;
        }
        if ((f.line >> kCoreAddrShift) != core) {
            if (why) {
                *why = strprintf(
                    "engine fill 0x%llx escaped core %d's slice",
                    (unsigned long long)f.line, mem_->coreId());
            }
            return false;
        }
    }
    for (const Slot &s : slots_) {
        if (s.storeBuf.size()
            > static_cast<std::size_t>(config_.storeBufEntries)) {
            if (why)
                *why = "engine store buffer overflowed its bound";
            return false;
        }
    }
    return true;
}

} // namespace rab
