#include "runahead/degradation_ladder.hh"

#include "common/logging.hh"

namespace rab
{

const char *
degradeLevelName(DegradeLevel level)
{
    switch (level) {
      case DegradeLevel::kFull: return "full";
      case DegradeLevel::kNoChainCache: return "no-chain-cache";
      case DegradeLevel::kNoBuffer: return "no-buffer";
      case DegradeLevel::kNoRunahead: return "no-runahead";
    }
    return "?";
}

DegradationLadder::DegradationLadder(const DegradationConfig &config)
    : config_(config), statGroup_("degrade")
{
    statGroup_.addCounter("faults_observed", &faultsObserved);
    statGroup_.addCounter("degrade_steps", &degradeSteps);
    statGroup_.addCounter("reenable_steps", &reenableSteps);
    statGroup_.addCounter("to_no_chain_cache", &toNoChainCache);
    statGroup_.addCounter("to_no_buffer", &toNoBuffer);
    statGroup_.addCounter("to_no_runahead", &toNoRunahead);
    statGroup_.addScalar("level", &levelValue_);
}

void
DegradationLadder::noteFault()
{
    ++faultsObserved;
    if (!config_.enabled)
        return;
    lastFaultCycle_ = cycle_;
    if (level_ == DegradeLevel::kNoRunahead)
        return; // Already at the bottom.
    if (++faultsAtLevel_ >= config_.faultThreshold)
        stepDown();
}

void
DegradationLadder::stepDown()
{
    level_ = static_cast<DegradeLevel>(static_cast<int>(level_) + 1);
    levelValue_ = static_cast<double>(level_);
    faultsAtLevel_ = 0;
    ++degradeSteps;
    switch (level_) {
      case DegradeLevel::kNoChainCache: ++toNoChainCache; break;
      case DegradeLevel::kNoBuffer: ++toNoBuffer; break;
      case DegradeLevel::kNoRunahead: ++toNoRunahead; break;
      case DegradeLevel::kFull: break; // Unreachable.
    }
    warn("degradation ladder: stepping down to %s after %llu faults",
         degradeLevelName(level_),
         (unsigned long long)faultsObserved.value());
}

void
DegradationLadder::stepUp()
{
    level_ = static_cast<DegradeLevel>(static_cast<int>(level_) - 1);
    levelValue_ = static_cast<double>(level_);
    faultsAtLevel_ = 0;
    ++reenableSteps;
    // Restart probation for the next step from this moment.
    lastFaultCycle_ = cycle_;
    warn("degradation ladder: clean probation window, re-enabling to %s",
         degradeLevelName(level_));
}

void
DegradationLadder::tick()
{
    ++cycle_;
    if (!config_.enabled || level_ == DegradeLevel::kFull)
        return;
    if (config_.probationCycles > 0
        && cycle_ - lastFaultCycle_ >= config_.probationCycles) {
        stepUp();
    }
}

void
DegradationLadder::regStats(StatGroup *parent)
{
    if (parent)
        parent->addChild(&statGroup_);
}

} // namespace rab
