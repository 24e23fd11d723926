/**
 * @file
 * Experiment harness helpers shared by the bench binaries: environment
 * driven run sizing (RAB_INSTRUCTIONS / RAB_WARMUP / RAB_WORKLOADS /
 * RAB_THREADS), workload selection, geometric means, aligned text
 * tables that print each figure's rows, and the CellRunner cache that
 * executes figure grids through the parallel sweep engine.
 */

#ifndef RAB_CORE_EXPERIMENT_HH
#define RAB_CORE_EXPERIMENT_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/simulation.hh"
#include "workloads/suite.hh"

namespace rab
{

/** Resolve sweep parallelism with one precedence rule shared by every
 *  driver: an explicit CLI value (> 0) wins, then a positive
 *  RAB_THREADS, then all hardware threads. Always >= 1. */
int resolveThreads(int cli_threads);

/** Default bench parallelism: resolveThreads(0) — RAB_THREADS, else
 *  every hardware thread. Always >= 1. */
int defaultBenchThreads();

/** Run sizing, overridable from the environment. */
struct BenchOptions
{
    std::uint64_t instructions = 60'000;
    std::uint64_t warmup = 15'000;
    int threads = 1; ///< Sweep parallelism (fromEnv: RAB_THREADS).
    std::vector<std::string> workloadFilter; ///< Empty: keep all.

    /**
     * Read RAB_INSTRUCTIONS, RAB_WARMUP, RAB_WORKLOADS (comma list)
     * and RAB_THREADS from the environment, falling back to the given
     * defaults (threads: all hardware threads). A numeric variable
     * that is set but not one plain integer (RAB_THREADS at most
     * INT_MAX) is fatal(): "200k", "1e5" and "-3" exit 1.
     */
    static BenchOptions fromEnv(std::uint64_t default_instructions = 60'000,
                                std::uint64_t default_warmup = 15'000);
};

/** Apply the name filter (empty filter keeps everything). */
std::vector<WorkloadSpec>
selectWorkloads(const std::vector<WorkloadSpec> &base,
                const std::vector<std::string> &filter);

/** Geometric mean of (1 + x) ratios, returned as a ratio - 1.
 *  Matches the paper's "GMean" of percentage speedups. */
double geomeanSpeedup(const std::vector<double> &speedups);

/** Plain geometric mean of the positive values; non-positive entries
 *  (failed/empty points) are skipped with a warning rather than being
 *  clamped. Returns 0 when no positive value remains. */
double geomean(const std::vector<double> &values);

/** Aligned monospace table printer. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);
    std::string toString() const;
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Run one (workload, config, prefetch) cell with bench sizing. */
SimResult runCell(const WorkloadSpec &spec, RunaheadConfig config,
                  bool prefetch, const BenchOptions &options);

/** A (config, prefetch) column of a figure grid. */
using CellVariant = std::pair<RunaheadConfig, bool>;

/**
 * Runs (workload x config) cells once each and caches the results, so
 * several figures computed by one binary don't re-simulate.
 *
 * prefill() is the fast path: it hands the whole workload x variant
 * grid to the sweep engine (src/sweep), which executes the cells on
 * options.threads worker threads; the figure loops below then hit the
 * cache. get() on a missing cell still simulates serially, so callers
 * never have to prefill exactly.
 */
class CellRunner
{
  public:
    explicit CellRunner(const BenchOptions &options)
        : options_(options)
    {
    }

    /** Cached result for one cell; simulates on a miss. */
    const SimResult &get(const WorkloadSpec &spec, RunaheadConfig config,
                         bool prefetch);

    /** Simulate the whole grid in parallel and fill the cache. */
    void prefill(const std::vector<WorkloadSpec> &specs,
                 const std::vector<CellVariant> &variants);

    const BenchOptions &options() const { return options_; }

  private:
    static std::string cellKey(const std::string &workload,
                               RunaheadConfig config, bool prefetch);

    BenchOptions options_;
    std::map<std::string, SimResult> cache_;
};

} // namespace rab

#endif // RAB_CORE_EXPERIMENT_HH
