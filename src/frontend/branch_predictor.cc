#include "frontend/branch_predictor.hh"

#include "common/logging.hh"

namespace rab
{

namespace
{

void
checkPow2(int v, const char *what)
{
    if (v <= 0 || (v & (v - 1)) != 0)
        fatal("branch predictor: %s (%d) must be a power of two", what, v);
}

} // namespace

BranchPredictor::BranchPredictor(const BranchPredictorConfig &config)
    : config_(config), statGroup_("bp")
{
    checkPow2(config_.bimodalEntries, "bimodal entries");
    checkPow2(config_.gshareEntries, "gshare entries");
    checkPow2(config_.chooserEntries, "chooser entries");
    checkPow2(config_.btbEntries, "btb entries");
    historyMask_ = (std::uint64_t{1} << config_.historyBits) - 1;
    bimodal_.assign(config_.bimodalEntries, 1);
    gshare_.assign(config_.gshareEntries, 1);
    chooser_.assign(config_.chooserEntries, 2);
    btb_.assign(config_.btbEntries, BtbEntry{});
}

int
BranchPredictor::bimodalIndex(Pc pc) const
{
    return static_cast<int>(pc & (config_.bimodalEntries - 1));
}

int
BranchPredictor::gshareIndex(Pc pc, std::uint64_t history) const
{
    return static_cast<int>((pc ^ history) & (config_.gshareEntries - 1));
}

int
BranchPredictor::chooserIndex(Pc pc) const
{
    return static_cast<int>(pc & (config_.chooserEntries - 1));
}

int
BranchPredictor::btbIndex(Pc pc) const
{
    return static_cast<int>(pc & (config_.btbEntries - 1));
}

void
BranchPredictor::counterTrain(std::uint8_t &ctr, bool taken)
{
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
}

BranchPrediction
BranchPredictor::predictBranch(Pc pc)
{
    ++lookups;
    const bool bimodal_taken = counterTaken(bimodal_[bimodalIndex(pc)]);
    const bool gshare_taken =
        counterTaken(gshare_[gshareIndex(pc, history_)]);
    const bool use_gshare = counterTaken(chooser_[chooserIndex(pc)]);
    bool taken = use_gshare ? gshare_taken : bimodal_taken;

    BranchPrediction pred;
    const BtbEntry &entry = btb_[btbIndex(pc)];
    pred.btbHit = entry.valid && entry.pc == pc;
    if (taken && !pred.btbHit) {
        // No target available: fall through (classic cold mispredict).
        taken = false;
    }
    pred.taken = taken;
    pred.target = pred.btbHit ? entry.target : pc + 1;

    // Speculative history update with the predicted direction.
    history_ = ((history_ << 1) | (taken ? 1 : 0)) & historyMask_;
    return pred;
}

BranchPrediction
BranchPredictor::predictJump(Pc pc)
{
    BranchPrediction pred;
    const BtbEntry &entry = btb_[btbIndex(pc)];
    pred.btbHit = entry.valid && entry.pc == pc;
    pred.taken = pred.btbHit;
    pred.target = pred.btbHit ? entry.target : pc + 1;
    return pred;
}

void
BranchPredictor::update(Pc pc, bool taken, Pc target,
                        std::uint64_t history)
{
    std::uint8_t &bimodal_ctr = bimodal_[bimodalIndex(pc)];
    std::uint8_t &gshare_ctr = gshare_[gshareIndex(pc, history)];
    std::uint8_t &chooser_ctr = chooser_[chooserIndex(pc)];

    const bool bimodal_correct = counterTaken(bimodal_ctr) == taken;
    const bool gshare_correct = counterTaken(gshare_ctr) == taken;
    if (bimodal_correct != gshare_correct)
        counterTrain(chooser_ctr, gshare_correct);

    counterTrain(bimodal_ctr, taken);
    counterTrain(gshare_ctr, taken);

    if (taken) {
        BtbEntry &entry = btb_[btbIndex(pc)];
        entry.valid = true;
        entry.pc = pc;
        entry.target = target;
    }
}

void
BranchPredictor::setHistory(std::uint64_t history)
{
    history_ = history & historyMask_;
}

void
BranchPredictor::rasPush(Pc ret)
{
    if (static_cast<int>(ras_.size()) >= config_.rasEntries)
        ras_.erase(ras_.begin());
    ras_.push_back(ret);
}

Pc
BranchPredictor::rasPop()
{
    if (ras_.empty())
        return 0;
    const Pc top = ras_.back();
    ras_.pop_back();
    return top;
}

void
BranchPredictor::regStats(StatGroup *parent)
{
    statGroup_.addCounter("lookups", &lookups);
    statGroup_.addCounter("mispredicts", &mispredicts);
    if (parent)
        parent->addChild(&statGroup_);
}

} // namespace rab
