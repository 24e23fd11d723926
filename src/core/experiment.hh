/**
 * @file
 * Experiment helpers shared by the drivers and the figure views:
 * sweep parallelism (--threads, RAB_THREADS), the paper's geometric
 * means and aligned text tables.
 */

#ifndef RAB_CORE_EXPERIMENT_HH
#define RAB_CORE_EXPERIMENT_HH

#include <string>
#include <vector>

namespace rab
{

/** Resolve sweep parallelism with one precedence rule shared by every
 *  driver: an explicit CLI value (> 0) wins, then a positive
 *  RAB_THREADS, then all hardware threads. Always >= 1. */
int resolveThreads(int cli_threads);

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

} // namespace rab

#endif // RAB_CORE_EXPERIMENT_HH
