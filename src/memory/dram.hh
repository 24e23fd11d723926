/**
 * @file
 * DDR3 main-memory timing model.
 *
 * Matches the paper's Table 1: 2 channels, 1 rank of 8 banks per
 * channel, 8 KB row buffers, CAS = 13.75 ns, 800 MHz bus, with bank
 * conflicts and queueing delays modelled. Requests are scheduled with a
 * bank-availability model: each bank and each channel data bus track the
 * cycle they next become free; a request's service start is the maximum
 * of its arrival and those resources, and its latency depends on whether
 * it hits the bank's open row. This captures row locality, bank-level
 * parallelism, and queueing to first order while staying deterministic.
 */

#ifndef RAB_MEMORY_DRAM_HH
#define RAB_MEMORY_DRAM_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "stats/stats.hh"

namespace rab
{

/** DDR3 organisation and timing, in core-clock terms. */
struct DramConfig
{
    double coreClockGhz = 3.2;
    double busClockMhz = 800.0;
    int channels = 2;
    int banksPerChannel = 8;
    std::uint64_t rowBytes = 8 * 1024;
    int lineBytes = 64;
    double casNs = 13.75;  ///< CAS latency (tCL).
    double tRcdNs = 13.75; ///< Activate to read (row open).
    double tRpNs = 13.75;  ///< Precharge (row close).
};

/** One scheduled DRAM access. */
struct DramResult
{
    Cycle readyCycle = 0; ///< Core cycle the line is delivered.
    bool rowHit = false;
    Cycle queueWait = 0;  ///< Cycles the request waited for its bank
                          ///< to free before service began (the
                          ///< bank-conflict share of the latency).
};

/** The DDR3 device model. */
class Dram
{
    friend struct SnapshotAccess; ///< src/snapshot serializer.
  public:
    explicit Dram(const DramConfig &config);

    /**
     * Schedule the access to the line containing @p addr arriving at
     * core cycle @p now. @p is_write accesses (writebacks) occupy the
     * bank/bus but their completion time is not meaningful to callers.
     */
    DramResult access(Addr addr, Cycle now, bool is_write);

    /** Channel index for an address (for tests/instrumentation). */
    int channelOf(Addr addr) const;
    /** Bank index within the channel. */
    int bankOf(Addr addr) const;
    /** Row index within the bank. */
    std::uint64_t rowOf(Addr addr) const;

    /** Earliest cycle the bank serving @p addr is free. */
    Cycle bankFreeAt(Addr addr) const;

    /** Earliest future cycle (> @p now) at which any bank or channel
     *  bus becomes free, or 0 when everything is already free. The
     *  fast-forward next-event query. */
    Cycle nextBankFreeCycle(Cycle now) const;

    const DramConfig &config() const { return config_; }

    /** Unloaded read latency (row hit, idle bank) in core cycles. */
    Cycle idleHitLatency() const;
    /** Unloaded read latency on a row conflict. */
    Cycle idleConflictLatency() const;

    /** @{ Statistics. */
    Counter reads;
    Counter writes;
    Counter rowHits;
    Counter rowConflicts;
    Counter latencySum;   ///< Σ (readyCycle - arrival) over reads.
    Counter queueWaitSum; ///< Σ (serviceStart - arrival) over reads.
    /** @} */

    void regStats(StatGroup *parent);

    /** Reset bank state (used between simulations). */
    void reset();

  private:
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Cycle freeAt = 0;
    };

    Cycle nsToCycles(double ns) const;

    /** Row-sized block index within the channel's compressed address
     *  space; bank and row indices both derive from it. */
    std::uint64_t rowSequence(Addr addr) const;

    DramConfig config_;
    Cycle casCycles_;
    Cycle rcdCycles_;
    Cycle rpCycles_;
    Cycle burstCycles_; ///< Data-bus occupancy per 64 B line transfer.
    std::vector<Bank> banks_;          // channels * banksPerChannel
    std::vector<Cycle> busFreeAt_;     // per channel
    StatGroup statGroup_;
};

} // namespace rab

#endif // RAB_MEMORY_DRAM_HH
