#include "core/experiment.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "common/number.hh"

namespace rab
{

int
resolveThreads(int cli_threads)
{
    if (cli_threads > 0)
        return cli_threads;
    // A set RAB_THREADS that is not one integer in [0, INT_MAX] is
    // fatal: a sweep sized by a misread variable would run on a
    // thread count nobody asked for.
    const char *env = std::getenv("RAB_THREADS");
    if (env && *env) {
        constexpr std::uint64_t kMax = std::numeric_limits<int>::max();
        const auto parsed = parseNumber<std::uint64_t>(env, 0, kMax);
        if (!parsed) {
            fatal("RAB_THREADS='%s' is not %s", env,
                  numberRangeText<std::uint64_t>(0, kMax).c_str());
        }
        if (*parsed > 0)
            return static_cast<int>(*parsed);
    }
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware > 0 ? static_cast<int>(hardware) : 1;
}

double
geomean(const std::vector<double> &values)
{
    // A geometric mean is only defined over positive values. Zeros or
    // negatives (failed points, empty cells) used to be silently
    // clamped to 1e-12, dragging the mean to ~0 and masking the bad
    // point; skip them with a warning instead so the mean reflects the
    // points that actually ran.
    double log_sum = 0.0;
    std::size_t used = 0;
    for (const double v : values) {
        if (v > 0.0) {
            log_sum += std::log(v);
            ++used;
        }
    }
    if (used < values.size()) {
        warn("geomean: skipped %zu non-positive value(s) of %zu",
             values.size() - used, values.size());
    }
    if (used == 0)
        return 0.0;
    return std::exp(log_sum / static_cast<double>(used));
}

double
geomeanSpeedup(const std::vector<double> &speedups)
{
    if (speedups.empty())
        return 0.0;
    std::vector<double> ratios;
    ratios.reserve(speedups.size());
    for (const double s : speedups)
        ratios.push_back(1.0 + s);
    return geomean(ratios) - 1.0;
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        panic("TextTable: row has %zu cells, expected %zu", cells.size(),
              headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
TextTable::toString() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i)
        widths[i] = headers_[i].size();
    for (const auto &row : rows_) {
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    }

    std::ostringstream os;
    const auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            os << row[i];
            if (i + 1 < row.size()) {
                os << std::string(widths[i] - row[i].size() + 2, ' ');
            }
        }
        os << "\n";
    };
    emit_row(headers_);
    std::size_t total = 0;
    for (const std::size_t w : widths)
        total += w + 2;
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows_)
        emit_row(row);
    return os.str();
}

void
TextTable::print() const
{
    std::fputs(toString().c_str(), stdout);
}

} // namespace rab
