#include "fault/fault_injector.hh"

#include <algorithm>

#include "isa/program.hh"
#include "runahead/chain_cache.hh"

namespace rab
{

FaultInjector::FaultInjector(const FaultConfig &config)
    : config_(config), rng_(config.seed), statGroup_("faults")
{
    statGroup_.addCounter("chain_corruptions", &chainCorruptions);
    statGroup_.addCounter("uop_flips", &uopFlips);
    statGroup_.addCounter("dram_drops", &dramDrops);
    statGroup_.addCounter("dram_delays", &dramDelays);
    statGroup_.addCounter("mem_stall_windows", &memStallWindows);
}

// ---------------------------------------------------------------------
// Speculative side
// ---------------------------------------------------------------------

bool
FaultInjector::maybeCorruptChainCache(ChainCache &cache)
{
    if (!enabled() || !rng_.chance(config_.chainCacheRate))
        return false;
    // Choose uniformly among the live (valid, non-empty) entries so a
    // sparsely filled cache still gets corrupted at the full rate.
    const int slots = cache.entries();
    std::vector<DependenceChain *> live;
    for (int i = 0; i < slots; ++i) {
        DependenceChain *chain = cache.faultSlotChain(i);
        if (chain && !chain->empty())
            live.push_back(chain);
    }
    if (live.empty())
        return false;
    corruptChain(*live[rng_.range(live.size())], 0);
    ++chainCorruptions;
    return true;
}

void
FaultInjector::corruptChain(DependenceChain &chain,
                            std::size_t program_size)
{
    if (chain.empty())
        return;
    const std::size_t victim = rng_.range(chain.size());
    switch (rng_.range(4)) {
      case 0: // Flip fields of one op.
        corruptUopFields(chain[victim].sop);
        break;
      case 1: // Retarget one op's PC (stale-entry model).
        if (program_size > 0) {
            chain[victim].pc = rng_.range(program_size);
        } else if (chain.size() > 1) {
            chain[victim].pc = chain[rng_.range(chain.size())].pc;
        } else {
            corruptUopFields(chain[victim].sop);
        }
        break;
      case 2: // Swap two ops (breaks program order).
        if (chain.size() > 1) {
            std::swap(chain[victim],
                      chain[rng_.range(chain.size())]);
        } else {
            corruptUopFields(chain[victim].sop);
        }
        break;
      case 3: // Truncate (often drops the terminating load).
        if (chain.size() > 1)
            chain.resize(1 + rng_.range(chain.size() - 1));
        else
            corruptUopFields(chain[victim].sop);
        break;
    }
}

bool
FaultInjector::maybeCorruptUop(Uop &sop)
{
    if (!enabled() || !rng_.chance(config_.bufferUopRate))
        return false;
    corruptUopFields(sop);
    ++uopFlips;
    return true;
}

void
FaultInjector::corruptUopFields(Uop &sop)
{
    // Flip one field, keeping the uop structurally legal: registers
    // that exist stay within the architectural file, the opcode class
    // never changes, and absent sources stay absent (a load must keep
    // an address base; see the file comment).
    const auto random_reg = [&]() -> ArchReg {
        return static_cast<ArchReg>(rng_.range(kNumArchRegs));
    };
    for (int attempt = 0; attempt < 4; ++attempt) {
        switch (rng_.range(5)) {
          case 0:
            if (sop.src1 == kNoArchReg)
                continue;
            sop.src1 = random_reg();
            return;
          case 1:
            if (sop.src2 == kNoArchReg)
                continue;
            sop.src2 = random_reg();
            return;
          case 2:
            if (sop.dest == kNoArchReg)
                continue;
            sop.dest = random_reg();
            return;
          case 3:
            sop.imm ^= static_cast<std::int64_t>(
                1ll << rng_.range(16));
            return;
          case 4:
            if (sop.op != Opcode::kIntAlu)
                continue;
            sop.func = static_cast<AluFunc>(rng_.range(10));
            return;
        }
    }
    // Every rolled field was absent: fall back to the immediate, which
    // every uop carries.
    sop.imm ^= 1;
}

// ---------------------------------------------------------------------
// Memory side
// ---------------------------------------------------------------------

bool
FaultInjector::dropDramResponse()
{
    if (!enabled() || !rng_.chance(config_.dramDropRate))
        return false;
    ++dramDrops;
    return true;
}

Cycle
FaultInjector::dramDelay()
{
    if (!enabled() || config_.dramDelayMaxCycles <= 0
        || !rng_.chance(config_.dramDelayRate)) {
        return 0;
    }
    ++dramDelays;
    return 1 + rng_.range(static_cast<std::uint64_t>(
                   config_.dramDelayMaxCycles));
}

bool
FaultInjector::memQueueStalled(Cycle now)
{
    if (!enabled())
        return false;
    if (now < stallUntil_)
        return true;
    if (config_.memStallCycles > 0 && rng_.chance(config_.memStallRate)) {
        stallUntil_ = now + static_cast<Cycle>(config_.memStallCycles);
        ++memStallWindows;
        return true;
    }
    return false;
}

std::uint64_t
FaultInjector::totalInjected() const
{
    return chainCorruptions.value() + uopFlips.value()
        + dramDrops.value() + dramDelays.value()
        + memStallWindows.value();
}

void
FaultInjector::regStats(StatGroup *parent)
{
    if (parent)
        parent->addChild(&statGroup_);
}

} // namespace rab
