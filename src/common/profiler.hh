/**
 * @file
 * Built-in phase profiler.
 *
 * Accumulates wall time and call counts per simulator stage (fetch,
 * rename, issue, writeback, commit, runahead control, chain
 * generation, memory access, fast-forward, checker) and prints a table
 * at process exit. Enabled by the RAB_PROFILE=1 environment variable;
 * when disabled, the instrumentation is a single predicted branch on a
 * global flag — no clock reads, no stores — so production runs pay
 * effectively nothing.
 *
 * Accumulation uses relaxed atomics so the parallel sweep driver's
 * worker threads can share the singleton; the report then aggregates
 * across every simulation the process ran.
 */

#ifndef RAB_COMMON_PROFILER_HH
#define RAB_COMMON_PROFILER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>

namespace rab
{

/** Instrumented simulator stages. */
enum class ProfPhase : int
{
    kFetch = 0,
    kRename,
    kIssue,
    kWriteback,
    kCommit,
    kRunaheadCtl,
    kChainGen,
    kMemAccess,
    kFastForward,
    kChecker,
    kNumPhases
};

/** Phase name for reports. */
const char *profPhaseName(ProfPhase phase);

/** Process-wide profile accumulator. */
class Profiler
{
  public:
    static constexpr int kNumPhases =
        static_cast<int>(ProfPhase::kNumPhases);

    static Profiler &instance();

    /** Fast global gate, consulted by every ProfScope. Initialized
     *  from RAB_PROFILE at first use. */
    static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

    /** Turn profiling on/off (RAB_PROFILE at static initialization).
     *  Enabling registers the at-exit report once. */
    static void setEnabled(bool on);

    /** Record @p ns nanoseconds of one call in @p phase. */
    void add(ProfPhase phase, std::uint64_t ns)
    {
        Slot &s = slots_[static_cast<int>(phase)];
        s.ns.fetch_add(ns, std::memory_order_relaxed);
        s.calls.fetch_add(1, std::memory_order_relaxed);
    }

    /** Per-stage wall-time / call-count table (phases with zero calls
     *  are omitted). */
    void report(std::FILE *out) const;

    void reset();

  private:
    Profiler() = default;

    struct Slot
    {
        std::atomic<std::uint64_t> ns{0};
        std::atomic<std::uint64_t> calls{0};
    };

    static std::atomic<bool> enabled_;
    Slot slots_[kNumPhases];
};

/** RAII stage timer: no-op (one branch) when profiling is off. */
class ProfScope
{
  public:
    explicit ProfScope(ProfPhase phase)
    {
        if (Profiler::enabled()) {
            phase_ = phase;
            active_ = true;
            start_ = std::chrono::steady_clock::now();
        }
    }

    ~ProfScope()
    {
        if (active_) {
            const auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
            Profiler::instance().add(
                phase_, static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
        }
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    ProfPhase phase_ = ProfPhase::kFetch;
    bool active_ = false;
    std::chrono::steady_clock::time_point start_;
};

} // namespace rab

#endif // RAB_COMMON_PROFILER_HH
