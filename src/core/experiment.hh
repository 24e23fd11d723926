/**
 * @file
 * Experiment harness helpers shared by the bench binaries: environment
 * driven run sizing (RAB_INSTRUCTIONS / RAB_WARMUP / RAB_WORKLOADS /
 * RAB_THREADS), workload selection, geometric means, aligned text
 * tables that print each figure's rows, and the CellRunner that runs
 * a figure's grid through the parallel sweep engine.
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
     * selectWorkloads checks the RAB_WORKLOADS names.
     */
    static BenchOptions fromEnv(std::uint64_t default_instructions = 60'000,
                                std::uint64_t default_warmup = 15'000);
};

/** The workloads of @p base that @p filter names, in @p base's order;
 *  an empty filter keeps everything. Names resolve through
 *  findWorkload, so the suite's aliases (libquantum) work. A name that
 *  is no workload is fatal() (exit 1); one outside @p base is skipped
 *  with a warning. */
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

/** A (config, prefetch) column of a figure grid. */
using CellVariant = std::pair<RunaheadConfig, bool>;

/**
 * A figure's workload x (config, prefetch) grid, run once at
 * construction as one campaign through the sweep engine (src/sweep),
 * the path rabsweep points take, on options.threads worker threads.
 * get() reads a cell of that grid. A cell that fails is fatal(),
 * naming the point and its error: a figure never prints a row it
 * could not simulate.
 */
class CellRunner
{
  public:
    CellRunner(const BenchOptions &options,
               const std::vector<WorkloadSpec> &workloads,
               const std::vector<CellVariant> &variants);

    /** One cell's result; panics on a cell outside the grid. */
    const SimResult &get(const WorkloadSpec &spec, RunaheadConfig config,
                         bool prefetch) const;

  private:
    static std::string cellKey(const std::string &workload,
                               RunaheadConfig config, bool prefetch);

    std::map<std::string, SimResult> cells_;
};

} // namespace rab

#endif // RAB_CORE_EXPERIMENT_HH
