#include "fault/watchdog.hh"

#include "common/logging.hh"

namespace rab
{

WatchdogTimeout::WatchdogTimeout(Cycle cycle, int recoveries,
                                 std::string detail)
    : std::runtime_error(strprintf(
          "watchdog gave up at cycle %llu after %d recoveries: %s",
          (unsigned long long)cycle, recoveries, detail.c_str())),
      cycle_(cycle), recoveries_(recoveries), detail_(std::move(detail))
{
}

ForwardProgressWatchdog::ForwardProgressWatchdog(
    const WatchdogConfig &config)
    : config_(config), statGroup_("watchdog")
{
    statGroup_.addCounter("fires", &fires);
    statGroup_.addCounter("recoveries", &recoveries);
}

bool
ForwardProgressWatchdog::shouldRecover(Cycle now, Cycle last_commit,
                                       std::uint64_t retired,
                                       const std::string &state_dump)
{
    if (!expired(now, last_commit))
        return false;

    ++fires;
    if (firedBefore_ && retired == lastFireRetired_)
        ++consecutive_;
    else
        consecutive_ = 1;
    firedBefore_ = true;
    lastFireRetired_ = retired;

    const int granted = static_cast<int>(recoveries.value());
    if (consecutive_ > config_.giveUpAfter
        || (config_.maxRecoveries > 0
            && granted >= config_.maxRecoveries)) {
        throw WatchdogTimeout(
            now, granted,
            strprintf("no retirement for %llu cycles "
                      "(%d consecutive recoveries ineffective); %s",
                      (unsigned long long)(now - last_commit),
                      consecutive_ - 1, state_dump.c_str()));
    }

    warn("watchdog: no retirement for %llu cycles at cycle %llu "
         "(fire %llu, consecutive %d); flushing to architectural "
         "state\n  %s",
         (unsigned long long)(now - last_commit),
         (unsigned long long)now, (unsigned long long)fires.value(),
         consecutive_, state_dump.c_str());
    ++recoveries;
    return true;
}

void
ForwardProgressWatchdog::regStats(StatGroup *parent)
{
    if (parent)
        parent->addChild(&statGroup_);
}

} // namespace rab
