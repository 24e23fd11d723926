#include "runahead/runahead_controller.hh"

#include <algorithm>
#include <utility>

#include "checker/invariant_checker.hh"
#include "common/logging.hh"
#include "fault/fault_injector.hh"

namespace rab
{

RunaheadPolicy
policyNone()
{
    return RunaheadPolicy{};
}

RunaheadPolicy
policyTraditional()
{
    RunaheadPolicy p;
    p.traditionalEnabled = true;
    return p;
}

RunaheadPolicy
policyTraditionalEnhanced()
{
    RunaheadPolicy p;
    p.traditionalEnabled = true;
    p.enhancements = true;
    return p;
}

RunaheadPolicy
policyBuffer()
{
    RunaheadPolicy p;
    p.bufferEnabled = true;
    return p;
}

RunaheadPolicy
policyBufferChainCache()
{
    RunaheadPolicy p;
    p.bufferEnabled = true;
    p.chainCacheEnabled = true;
    return p;
}

RunaheadPolicy
policyHybrid()
{
    RunaheadPolicy p;
    p.traditionalEnabled = true;
    p.bufferEnabled = true;
    p.chainCacheEnabled = true;
    p.hybrid = true;
    p.enhancements = true; // Section 4.6: used by the Hybrid policy.
    return p;
}

RunaheadPolicy
policyCre()
{
    // Continuous Runahead rides on the buffer + chain-cache machinery:
    // the chain cache is what feeds the engine.
    RunaheadPolicy p = policyBufferChainCache();
    p.engine.enabled = true;
    return p;
}

RunaheadPolicy
policyCreHybrid()
{
    RunaheadPolicy p = policyHybrid();
    p.engine.enabled = true;
    return p;
}

RunaheadController::RunaheadController(const RunaheadPolicy &policy)
    : policy_(policy),
      runaheadCache_(policy.runaheadCache),
      chainGen_(policy.chainGen),
      chainCache_(policy.chainCacheEntries),
      buffer_(policy.chainGen.maxChainLength),
      ladder_(policy.degrade),
      statGroup_("runahead")
{
}

void
RunaheadController::noteSpeculativeFault()
{
    ++speculativeFaults;
    ladder_.noteFault();
}

const DependenceChain *
RunaheadController::lookupTrustedChain(Pc pc)
{
    const DependenceChain *cached = chainCache_.lookup(pc);
    if (!cached)
        return nullptr;
    if (checker_) {
        // Under CheckPolicy::kDegrade a corrupt cached chain does not
        // throw; the violation is routed to noteSpeculativeFault(),
        // which bumps speculativeFaults. Snapshot the counter so we
        // can tell whether this particular chain was flagged.
        const std::uint64_t faults_before = speculativeFaults.value();
        checker_->onChainCacheHit(pc, *cached);
        checker_->checkChain(*cached, pc, policy_.chainGen.maxChainLength);
        if (speculativeFaults.value() != faults_before) {
            // Discard the corrupt entry; the caller regenerates the
            // chain from the ROB and the insert overwrites this slot.
            ++cachedChainsRejected;
            return nullptr;
        }
    }
    return cached;
}

ChainResult
RunaheadController::generateChain(const Rob &rob, const StoreQueue &sq,
                                  const DynUop &head)
{
    ChainResult result = chainGen_.generate(rob, sq, head.pc, head.seq);
    if (checker_)
        checker_->onChainGenerated(chainGen_, head.pc, head.seq);
    return result;
}

EntryDecision
RunaheadController::decideEntry(const Rob &rob, const StoreQueue &sq,
                                const DynUop &head,
                                std::uint64_t fetched_instrs,
                                std::uint64_t retired_instrs)
{
    EntryDecision decision;
    if (!policy_.anyRunahead() || inRunahead())
        return decision;
    if (!ladder_.runaheadAllowed()) {
        ++degradedNoEntry;
        return decision;
    }

    if (policy_.enhancements) {
        // Enhancement 1: if the blocking miss was issued to memory long
        // ago, most of its latency has elapsed and the interval would
        // be too short to be useful.
        if (fetched_instrs - head.missIssueInstrNum
                >= policy_.distanceThreshold) {
            ++suppressedShort;
            return decision;
        }
        // Enhancement 2: do not re-enter runahead over instructions a
        // previous interval already covered (overlap elimination).
        if (retired_instrs <= farthestInstr_) {
            ++suppressedOverlap;
            return decision;
        }
    }

    // The degradation ladder narrows the policy's capabilities: at
    // kNoBuffer every buffer entry demotes to traditional runahead
    // (the paper's hybrid fallback path); the chain cache is only
    // usable while the buffer is.
    const bool buffer_ok = policy_.bufferEnabled
        && ladder_.bufferAllowed();
    const bool cc_ok = buffer_ok && policy_.chainCacheEnabled
        && ladder_.chainCacheAllowed();

    // Fault injection: corrupt a random live chain-cache entry on the
    // injector's schedule before any lookup below can consume it.
    if (faults_ && cc_ok)
        faults_->maybeCorruptChainCache(chainCache_);

    if (!buffer_ok) {
        decision.enter = true;
        decision.mode = RunaheadMode::kTraditional;
        if (policy_.bufferEnabled)
            ++degradedTraditional;
        return decision;
    }

    if (policy_.hybrid) {
        // Fig. 8: matching PC in ROB? -> chain cache? -> short enough?
        const int match = rob.findOldestByPc(head.pc, head.seq);
        ++pcCamSearches;
        if (match < 0) {
            decision.enter = true;
            decision.mode = RunaheadMode::kTraditional;
            return decision;
        }
        if (cc_ok) {
            if (const DependenceChain *cached =
                    lookupTrustedChain(head.pc)) {
                decision.enter = true;
                decision.mode = RunaheadMode::kBuffer;
                decision.usedCachedChain = true;
                decision.chain = *cached;
                decision.generationCycles = 1;

                // Fig. 13 instrumentation: does the cached chain match
                // what the ROB would generate right now?
                ChainResult regen = generateChain(rob, sq, head);
                ++chainCacheCheckedHits;
                if (regen.pcFound
                    && chainsEqual(*cached, regen.chain)) {
                    ++chainCacheExactHits;
                }
                return decision;
            }
        }
        ChainResult result = generateChain(rob, sq, head);
        regCamSearches += result.regCamSearches;
        sqCamSearches += result.sqSearches;
        robChainReads += result.robReads;
        if (result.overflow || result.chain.empty()) {
            decision.enter = true;
            decision.mode = RunaheadMode::kTraditional;
            return decision;
        }
        if (checker_) {
            checker_->checkChain(result.chain, head.pc,
                                 policy_.chainGen.maxChainLength);
        }
        if (cc_ok) {
            if (checker_)
                checker_->onChainCacheInsert(head.pc, result.chain);
            chainCache_.insert(head.pc, result.chain);
        }
        decision.enter = true;
        decision.mode = RunaheadMode::kBuffer;
        decision.chain = std::move(result.chain);
        decision.generationCycles = result.generationCycles;
        return decision;
    }

    // Buffer-only policies (Algorithm 1, optionally with chain cache).
    if (cc_ok) {
        if (const DependenceChain *cached = lookupTrustedChain(head.pc)) {
            decision.enter = true;
            decision.mode = RunaheadMode::kBuffer;
            decision.usedCachedChain = true;
            decision.chain = *cached;
            decision.generationCycles = 1;

            ChainResult regen = generateChain(rob, sq, head);
            ++chainCacheCheckedHits;
            if (regen.pcFound && chainsEqual(*cached, regen.chain))
                ++chainCacheExactHits;
            return decision;
        }
    }
    ChainResult result = generateChain(rob, sq, head);
    ++pcCamSearches;
    regCamSearches += result.regCamSearches;
    sqCamSearches += result.sqSearches;
    robChainReads += result.robReads;
    if (!result.pcFound || result.chain.empty()) {
        // Without traditional runahead to fall back on, stay stalled.
        ++noChainNoEntry;
        return decision;
    }
    // The buffer-only policy caps the chain at 32 uops and proceeds.
    if (checker_) {
        checker_->checkChain(result.chain, head.pc,
                             policy_.chainGen.maxChainLength);
    }
    if (cc_ok) {
        if (checker_)
            checker_->onChainCacheInsert(head.pc, result.chain);
        chainCache_.insert(head.pc, result.chain);
    }
    decision.enter = true;
    decision.mode = RunaheadMode::kBuffer;
    decision.chain = std::move(result.chain);
    decision.generationCycles = result.generationCycles;
    return decision;
}

void
RunaheadController::enter(const EntryDecision &decision, Cycle now,
                          Cycle blocking_ready,
                          std::uint64_t retired_instrs)
{
    if (!decision.enter || inRunahead())
        panic("RunaheadController::enter: bad entry");
    mode_ = decision.mode;
    blockingReady_ = blocking_ready;
    ++intervals;
    ++checkpoints;
    farthestInstr_ = std::max(farthestInstr_, retired_instrs);
    if (mode_ == RunaheadMode::kBuffer) {
        ++bufferIntervals;
        chainGenCycles += decision.generationCycles;
        bufferIssueStart_ = now + decision.generationCycles;
        buffer_.fill(decision.chain);
    } else {
        ++traditionalIntervals;
        bufferIssueStart_ = 0;
    }
}

void
RunaheadController::exit(std::uint64_t farthest_instr)
{
    if (!inRunahead())
        panic("RunaheadController::exit while not in runahead");
    farthestInstr_ = std::max(farthestInstr_, farthest_instr);
    mode_ = RunaheadMode::kNone;
    buffer_.deactivate();
    runaheadCache_.clear();
}

void
RunaheadController::tickCycle()
{
    if (mode_ == RunaheadMode::kTraditional)
        ++cyclesTraditional;
    else if (mode_ == RunaheadMode::kBuffer)
        ++cyclesBuffer;
    ladder_.tick();
}

void
RunaheadController::accountSkippedCycles(std::uint64_t n)
{
    if (mode_ == RunaheadMode::kTraditional)
        cyclesTraditional += n;
    else if (mode_ == RunaheadMode::kBuffer)
        cyclesBuffer += n;
    ladder_.advance(n);
}

void
RunaheadController::noteRunaheadMiss()
{
    ++runaheadMisses;
}

void
RunaheadController::regStats(StatGroup *parent)
{
    statGroup_.addCounter("intervals", &intervals);
    statGroup_.addCounter("traditional_intervals", &traditionalIntervals);
    statGroup_.addCounter("buffer_intervals", &bufferIntervals);
    statGroup_.addCounter("cycles_traditional", &cyclesTraditional);
    statGroup_.addCounter("cycles_buffer", &cyclesBuffer);
    statGroup_.addCounter("chain_gen_cycles", &chainGenCycles);
    statGroup_.addCounter("runahead_misses", &runaheadMisses);
    statGroup_.addCounter("suppressed_short", &suppressedShort);
    statGroup_.addCounter("suppressed_overlap", &suppressedOverlap);
    statGroup_.addCounter("no_chain_no_entry", &noChainNoEntry);
    statGroup_.addCounter("chain_cache_exact_hits", &chainCacheExactHits);
    statGroup_.addCounter("chain_cache_checked_hits", &chainCacheCheckedHits);
    statGroup_.addCounter("checkpoints", &checkpoints);
    statGroup_.addCounter("pc_cam_searches", &pcCamSearches);
    statGroup_.addCounter("reg_cam_searches", &regCamSearches);
    statGroup_.addCounter("sq_cam_searches", &sqCamSearches);
    statGroup_.addCounter("rob_chain_reads", &robChainReads);
    statGroup_.addCounter("speculative_faults", &speculativeFaults);
    statGroup_.addCounter("cached_chains_rejected", &cachedChainsRejected);
    statGroup_.addCounter("degraded_no_entry", &degradedNoEntry);
    statGroup_.addCounter("degraded_traditional", &degradedTraditional);
    ladder_.regStats(&statGroup_);
    runaheadCache_.regStats(&statGroup_);
    chainGen_.regStats(&statGroup_);
    chainCache_.regStats(&statGroup_);
    buffer_.regStats(&statGroup_);
    if (parent)
        parent->addChild(&statGroup_);
}

} // namespace rab
