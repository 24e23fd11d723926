#include "runahead/chain_generator.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/profiler.hh"
#include "isa/functional.hh"

namespace rab
{

std::uint64_t
chainSignature(const DependenceChain &chain)
{
    std::uint64_t sig = 0x243f6a8885a308d3ull;
    for (const ChainOp &op : chain) {
        sig = mix64(sig ^ op.pc);
        sig = mix64(sig ^ static_cast<std::uint64_t>(op.sop.op));
    }
    return sig;
}

bool
chainsEqual(const DependenceChain &a, const DependenceChain &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].pc != b[i].pc
            || a[i].sop.op != b[i].sop.op
            || a[i].sop.dest != b[i].sop.dest
            || a[i].sop.src1 != b[i].sop.src1
            || a[i].sop.src2 != b[i].sop.src2
            || a[i].sop.imm != b[i].sop.imm) {
            return false;
        }
    }
    return true;
}

ChainGenerator::ChainGenerator(const ChainGeneratorConfig &config)
    : config_(config), statGroup_("chain_gen")
{
    youngestWriter_.fill(-1);
}

ChainResult
ChainGenerator::generate(const Rob &rob, const StoreQueue &sq,
                         Pc blocking_pc, SeqNum blocking_seq)
{
    ProfScope prof(ProfPhase::kChainGen);
    ++attempts;
    ChainResult result;

    // Cycle 0: priority PC CAM over the ROB for a younger dynamic
    // instance of the blocking load.
    result.pcCamSearches = 1;
    result.generationCycles = 1;
    const int match_slot = scanWindow(rob, blocking_pc, blocking_seq);
    if (match_slot < 0) {
        ++noPcMatch;
        return result;
    }
    result.pcFound = true;

    // Reset the pooled scratch: unmark only the slots the previous call
    // touched (robust to any exit path), then size the mark array to
    // this ROB.
    for (const int slot : includedSlots_)
        includedMark_[slot] = 0;
    includedSlots_.clear();
    srsl_.clear();
    if (static_cast<int>(includedMark_.size()) < rob.capacity())
        includedMark_.resize(rob.capacity(), 0);

    // Source register search list: (register, consumer seq) pairs. The
    // consumer seq bounds the priority CAM so we find the *youngest
    // producer older than the consumer*.
    const auto enqueue_sources = [&](const DynUop &uop) {
        const auto push = [&](ArchReg reg) {
            if (reg == kNoArchReg)
                return;
            if (static_cast<int>(srsl_.size())
                    >= config_.srslEntries) {
                return; // SRSL full: chain becomes less exact.
            }
            srsl_.emplace_back(reg, uop.seq);
        };
        push(uop.sop.src1);
        push(uop.sop.src2);
    };

    const auto include = [&](int slot) -> bool {
        if (includedMark_[slot])
            return true;
        if (static_cast<int>(includedSlots_.size())
                >= config_.maxChainLength) {
            result.overflow = true;
            return false;
        }
        includedMark_[slot] = 1;
        includedSlots_.push_back(slot);
        return true;
    };

    const DynUop &seed = rob.slot(match_slot);
    include(match_slot);
    enqueue_sources(seed);

    // Walk producers, up to regSearchesPerCycle CAM searches per cycle,
    // until the SRSL drains or the chain is full.
    while (!srsl_.empty() && !result.overflow) {
        ++result.generationCycles;
        for (int port = 0;
             port < config_.regSearchesPerCycle && !srsl_.empty();
             ++port) {
            // Depth-first: walking the youngest enqueued register first
            // keeps the SRSL shallow on serial chains, so the deep
            // producers (loop inductions) are found before the list
            // capacity drops anything.
            const auto [reg, consumer_seq] = srsl_.back();
            srsl_.pop_back();
            ++result.regCamSearches;
            const int producer_slot = findProducer(reg, consumer_seq);
            if (producer_slot < 0)
                continue;
            if (includedMark_[producer_slot])
                continue;
            const DynUop &producer = rob.slot(producer_slot);
            if (producer.isControl())
                continue; // Branch-predicted stream: no control uops.
            if (!include(producer_slot))
                break;
            enqueue_sources(producer);

            // Register spills/fills: a load may consume data from an
            // in-flight store; include that store and its sources.
            if (producer.isLoad() && producer.effAddr != kNoAddr) {
                ++result.sqSearches;
                const int store_slot =
                    sq.findStoreRobSlot(producer.seq, producer.effAddr);
                if (store_slot >= 0 && !includedMark_[store_slot]) {
                    if (!include(store_slot))
                        break;
                    enqueue_sources(rob.slot(store_slot));
                }
            }
        }
    }

    // Read the chain out of the ROB in program order at the back-end's
    // superscalar width. Seqs are unique, so sorting the insertion-order
    // slot list by seq yields the same program order the old
    // slot-ordered set did.
    std::sort(includedSlots_.begin(), includedSlots_.end(),
              [&](int a, int b) { return rob.slot(a).seq < rob.slot(b).seq; });
    result.chain.reserve(includedSlots_.size());
    for (const int slot : includedSlots_) {
        const DynUop &uop = rob.slot(slot);
        result.chain.push_back(ChainOp{uop.pc, uop.sop});
    }
    result.robReads = static_cast<int>(result.chain.size());
    result.generationCycles += (result.robReads + config_.readoutWidth - 1)
        / config_.readoutWidth;

    if (result.overflow)
        ++overflows;
    ++generatedChains;
    generatedOps += result.chain.size();
    return result;
}

int
ChainGenerator::scanWindow(const Rob &rob, Pc pc, SeqNum after_seq)
{
    passed_.clear();
    youngestWriter_.fill(-1);
    matchSlot_ = -1;
    for (int i = 0; i < rob.size(); ++i) {
        const int slot = rob.logicalToSlot(i);
        const DynUop &uop = rob.slot(slot);
        if (uop.seq > after_seq && uop.pc == pc) {
            matchSlot_ = slot;
            break;
        }
        const ArchReg dest = uop.sop.dest;
        if (dest < kNumArchRegs) {
            passed_.push_back(
                Passed{uop.seq, slot, youngestWriter_[dest]});
            youngestWriter_[dest] = static_cast<int>(passed_.size()) - 1;
        }
    }
    return matchSlot_;
}

int
ChainGenerator::findProducer(ArchReg reg, SeqNum before_seq) const
{
    if (reg >= kNumArchRegs)
        return -1;
    // Youngest first: skip the writers at or above before_seq.
    for (int i = youngestWriter_[reg]; i >= 0;
         i = passed_[i].olderSameDest) {
        if (passed_[i].seq < before_seq)
            return passed_[i].slot;
    }
    return -1;
}

void
ChainGenerator::regStats(StatGroup *parent)
{
    statGroup_.addCounter("attempts", &attempts);
    statGroup_.addCounter("no_pc_match", &noPcMatch);
    statGroup_.addCounter("overflows", &overflows);
    statGroup_.addCounter("generated_chains", &generatedChains);
    statGroup_.addCounter("generated_ops", &generatedOps);
    if (parent)
        parent->addChild(&statGroup_);
}

} // namespace rab
