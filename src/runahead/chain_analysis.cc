#include "runahead/chain_analysis.hh"

#include <algorithm>

#include "isa/functional.hh"
#include "isa/program.hh"

namespace rab
{

namespace
{

static_assert(kNumArchRegs <= 32, "slice registers live in a 32-bit mask");

/** Mask bit of slice register @p reg (none for kNoArchReg). */
std::uint32_t
regBit(ArchReg reg)
{
    return reg < kNumArchRegs ? std::uint32_t{1} << reg : 0;
}

} // namespace

ChainAnalysis::ChainAnalysis(int window, int max_chain)
    : window_(static_cast<std::size_t>(std::max(window, 0))),
      maxChain_(max_chain), statGroup_("chain_analysis")
{
}

void
ChainAnalysis::clearInterval()
{
    history_.clear();
    head_ = 0;
    ordered_ = 0;
    necessary_.clear();
    necessaryUnique_ = 0;
    signatures_.clear();
    intervalExecuted_ = 0;
}

void
ChainAnalysis::beginInterval()
{
    inInterval_ = true;
    clearInterval();
}

void
ChainAnalysis::recordExec(const DynUop &uop)
{
    if (!inInterval_)
        return;
    ++intervalExecuted_;
    // Bound the array at a window and a quarter: order it and drop the
    // records that left the window. It never holds more, so its growth
    // stops at the bound instead of doubling past it.
    const std::size_t bound = window_ + window_ / 4;
    if (history_.size() == history_.capacity())
        history_.reserve(std::min(bound, 2 * history_.size() + 1));
    history_.push_back(Rec{uop.seq, uop.pc, uop.sop.dest, uop.sop.src1,
                           uop.sop.src2});
    if (history_.size() >= bound) {
        order();
        history_.erase(history_.begin(),
                       history_.begin()
                           + static_cast<std::ptrdiff_t>(head_));
        ordered_ -= head_;
        head_ = 0;
    }
}

void
ChainAnalysis::order()
{
    // Insertion merge: an appended record moves past the ordered
    // records younger than it, at most the core's in-flight window.
    const auto at_index = [&](std::size_t i) {
        return history_.begin() + static_cast<std::ptrdiff_t>(i);
    };
    std::size_t end = ordered_;
    for (std::size_t i = ordered_; i < history_.size(); ++i) {
        const Rec rec = history_[i];
        if (end == head_ || history_[end - 1].seq < rec.seq) {
            history_[end++] = rec; // Already in order: end <= i.
            continue;
        }
        std::size_t at = end;
        while (at > head_ && history_[at - 1].seq > rec.seq)
            --at;
        if (at > head_ && history_[at - 1].seq == rec.seq)
            continue; // A repeated seq: the first record stands.
        std::copy_backward(at_index(at), at_index(end),
                           at_index(end + 1));
        history_[at] = rec;
        ++end;
    }
    history_.resize(end);
    ordered_ = end;
    if (end - head_ > window_)
        head_ = end - window_;
}

void
ChainAnalysis::compactNecessary()
{
    std::sort(necessary_.begin(), necessary_.end());
    necessary_.erase(std::unique(necessary_.begin(), necessary_.end()),
                     necessary_.end());
    necessaryUnique_ = necessary_.size();
}

void
ChainAnalysis::recordMiss(const DynUop &uop)
{
    if (!inInterval_)
        return;
    order();

    // Reconstruct the backward dependence slice of the missing load
    // over the recorded window.
    std::uint32_t needed = regBit(uop.sop.src1) | regBit(uop.sop.src2);

    // The chain is the *static* slice: each static uop (PC) counts
    // once. Without the dedup, every loop-carried induction would drag
    // the slice back through all prior iterations and no two chains
    // would ever compare equal.
    slicePcs_.assign(1, uop.pc);
    necessary_.push_back(uop.seq);

    const auto in_slice = [&](Pc pc) {
        return std::find(slicePcs_.begin(), slicePcs_.end(), pc)
            != slicePcs_.end();
    };

    // Walk strictly backwards in program (sequence) order.
    const auto first =
        history_.begin() + static_cast<std::ptrdiff_t>(head_);
    auto it = std::lower_bound(
        first, history_.begin() + static_cast<std::ptrdiff_t>(ordered_),
        uop.seq, [](const Rec &rec, SeqNum seq) { return rec.seq < seq; });
    while (it != first && needed != 0
           && static_cast<int>(slicePcs_.size()) < maxChain_) {
        --it;
        const std::uint32_t bit = regBit(it->dest);
        if ((needed & bit) == 0)
            continue;
        needed &= ~bit;
        necessary_.push_back(it->seq);
        if (in_slice(it->pc))
            continue; // an older instance of a static op already seen
        needed |= regBit(it->src1) | regBit(it->src2);
        slicePcs_.push_back(it->pc);
    }
    // Slices overlap from miss to miss; deduplicate before the repeats
    // outnumber the distinct seqs.
    if (necessary_.size() >= 2 * necessaryUnique_ + 1024)
        compactNecessary();

    // Structural signature: the sorted distinct-PC set of the slice.
    std::sort(slicePcs_.begin(), slicePcs_.end());
    std::uint64_t sig = 0x452821e638d01377ull;
    for (const Pc pc : slicePcs_)
        sig = mix64(sig ^ pc);

    ++chainsTotal;
    const auto seen =
        std::lower_bound(signatures_.begin(), signatures_.end(), sig);
    if (seen != signatures_.end() && *seen == sig)
        ++chainsRepeated;
    else
        signatures_.insert(seen, sig);

    chainLengthSum += slicePcs_.size();
    ++chainsMeasured;
}

void
ChainAnalysis::endInterval()
{
    if (!inInterval_)
        return;
    compactNecessary();
    opsExecuted += intervalExecuted_;
    opsNecessary += necessary_.size();
    inInterval_ = false;
    clearInterval();
}

void
ChainAnalysis::regStats(StatGroup *parent)
{
    statGroup_.addCounter("ops_executed", &opsExecuted);
    statGroup_.addCounter("ops_necessary", &opsNecessary);
    statGroup_.addCounter("chains_total", &chainsTotal);
    statGroup_.addCounter("chains_repeated", &chainsRepeated);
    statGroup_.addCounter("chain_length_sum", &chainLengthSum);
    statGroup_.addCounter("chains_measured", &chainsMeasured);
    if (parent)
        parent->addChild(&statGroup_);
}

} // namespace rab
