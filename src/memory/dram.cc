#include "memory/dram.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace rab
{

Dram::Dram(const DramConfig &config)
    : config_(config), statGroup_("dram")
{
    if (config_.channels <= 0 || config_.banksPerChannel <= 0)
        fatal("dram: bad organisation");
    casCycles_ = nsToCycles(config_.casNs);
    rcdCycles_ = nsToCycles(config_.tRcdNs);
    rpCycles_ = nsToCycles(config_.tRpNs);
    // A 64 B line moves over an 8 B-wide DDR bus in lineBytes/8 half-bus
    // cycles = 4 bus cycles at DDR-1600 (800 MHz bus).
    const double bus_cycle_ns = 1000.0 / config_.busClockMhz;
    const double transfer_ns =
        (static_cast<double>(config_.lineBytes) / 16.0) * bus_cycle_ns;
    burstCycles_ = nsToCycles(transfer_ns);
    banks_.assign(
        static_cast<std::size_t>(config_.channels * config_.banksPerChannel),
        Bank{});
    busFreeAt_.assign(config_.channels, 0);
}

Cycle
Dram::nsToCycles(double ns) const
{
    return static_cast<Cycle>(std::ceil(ns * config_.coreClockGhz));
}

int
Dram::channelOf(Addr addr) const
{
    // Interleave channels on line granularity for bandwidth.
    return static_cast<int>((addr / config_.lineBytes) % config_.channels);
}

std::uint64_t
Dram::rowSequence(Addr addr) const
{
    // Compress the address to this channel's private space (channels
    // interleave on lines), then index by row-sized blocks. The low
    // log2(banksPerChannel) digits of this sequence select the bank;
    // they MUST be stripped before forming the per-bank row index, or
    // consecutive rows of different banks would alias onto the same
    // open-row tag and corrupt hit/conflict accounting.
    const Addr chan_addr = addr / config_.lineBytes / config_.channels
        * config_.lineBytes;
    return chan_addr / config_.rowBytes;
}

int
Dram::bankOf(Addr addr) const
{
    // Interleave banks on row granularity within a channel.
    return static_cast<int>(rowSequence(addr) % config_.banksPerChannel);
}

std::uint64_t
Dram::rowOf(Addr addr) const
{
    // Bank bits stripped: rows are indexed within their bank, so
    // (channel, bank, row) is a bijective decomposition of the line
    // address and distinct rows never share an open-row tag.
    return rowSequence(addr) / config_.banksPerChannel;
}

Cycle
Dram::bankFreeAt(Addr addr) const
{
    const int channel = channelOf(addr);
    const int bank = bankOf(addr);
    return banks_[channel * config_.banksPerChannel + bank].freeAt;
}

Cycle
Dram::nextBankFreeCycle(Cycle now) const
{
    Cycle next = 0;
    const auto consider = [&](Cycle free_at) {
        if (free_at > now && (next == 0 || free_at < next))
            next = free_at;
    };
    for (const Bank &bank : banks_)
        consider(bank.freeAt);
    for (const Cycle bus_free : busFreeAt_)
        consider(bus_free);
    return next;
}

DramResult
Dram::access(Addr addr, Cycle now, bool is_write)
{
    const int channel = channelOf(addr);
    const int bank_idx = bankOf(addr);
    const std::uint64_t row = rowOf(addr);
    Bank &bank = banks_[channel * config_.banksPerChannel + bank_idx];

    const Cycle start = std::max(now, bank.freeAt);
    Cycle access_latency;
    DramResult result;
    result.queueWait = start - now;
    if (bank.rowOpen && bank.openRow == row) {
        access_latency = casCycles_;
        result.rowHit = true;
        ++rowHits;
    } else {
        // Close the open row (precharge) then activate the new one.
        access_latency = (bank.rowOpen ? rpCycles_ : 0) + rcdCycles_
            + casCycles_;
        ++rowConflicts;
    }
    bank.rowOpen = true;
    bank.openRow = row;

    // Data comes back over the channel bus after the array access.
    const Cycle data_start =
        std::max(start + access_latency, busFreeAt_[channel]);
    busFreeAt_[channel] = data_start + burstCycles_;
    bank.freeAt = data_start + burstCycles_;
    result.readyCycle = data_start + burstCycles_;

    if (is_write) {
        ++writes;
    } else {
        ++reads;
        latencySum += result.readyCycle - now;
        queueWaitSum += start - now;
    }
    return result;
}

Cycle
Dram::idleHitLatency() const
{
    return casCycles_ + burstCycles_;
}

Cycle
Dram::idleConflictLatency() const
{
    return rpCycles_ + rcdCycles_ + casCycles_ + burstCycles_;
}

void
Dram::regStats(StatGroup *parent)
{
    statGroup_.addCounter("reads", &reads);
    statGroup_.addCounter("writes", &writes);
    statGroup_.addCounter("row_hits", &rowHits);
    statGroup_.addCounter("row_conflicts", &rowConflicts);
    statGroup_.addCounter("latency_sum", &latencySum);
    statGroup_.addCounter("queue_wait_sum", &queueWaitSum);
    if (parent)
        parent->addChild(&statGroup_);
}

void
Dram::reset()
{
    banks_.assign(banks_.size(), Bank{});
    busFreeAt_.assign(busFreeAt_.size(), 0);
    reads.reset();
    writes.reset();
    rowHits.reset();
    rowConflicts.reset();
}

} // namespace rab
