#include "core/experiment.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "common/number.hh"
#include "sweep/campaign.hh"

namespace rab
{

namespace
{

/** Environment variable @p name as one integer in [0, @p hi];
 *  @p fallback when unset or empty. Anything else is fatal: a bench
 *  sized by a misread variable would report numbers for a run nobody
 *  asked for. */
std::uint64_t
envU64(const char *name, std::uint64_t fallback,
       std::uint64_t hi = std::numeric_limits<std::uint64_t>::max())
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    const auto parsed = parseNumber<std::uint64_t>(value, 0, hi);
    if (!parsed) {
        fatal("%s='%s' is not %s", name, value,
              numberRangeText<std::uint64_t>(0, hi).c_str());
    }
    return *parsed;
}

} // namespace

int
resolveThreads(int cli_threads)
{
    if (cli_threads > 0)
        return cli_threads;
    const std::uint64_t env =
        envU64("RAB_THREADS", 0, std::numeric_limits<int>::max());
    if (env > 0)
        return static_cast<int>(env);
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware > 0 ? static_cast<int>(hardware) : 1;
}

int
defaultBenchThreads()
{
    return resolveThreads(0);
}

BenchOptions
BenchOptions::fromEnv(std::uint64_t default_instructions,
                      std::uint64_t default_warmup)
{
    BenchOptions options;
    options.instructions = envU64("RAB_INSTRUCTIONS",
                                  default_instructions);
    options.warmup = envU64("RAB_WARMUP", default_warmup);
    options.threads = defaultBenchThreads();
    if (const char *list = std::getenv("RAB_WORKLOADS")) {
        std::stringstream ss(list);
        std::string item;
        while (std::getline(ss, item, ',')) {
            if (!item.empty())
                options.workloadFilter.push_back(item);
        }
    }
    return options;
}

std::vector<WorkloadSpec>
selectWorkloads(const std::vector<WorkloadSpec> &base,
                const std::vector<std::string> &filter)
{
    if (filter.empty())
        return base;
    std::vector<std::string> wanted;
    std::string outside;
    for (const std::string &name : filter) {
        const WorkloadSpec *spec = findWorkload(name);
        if (!spec)
            fatal("RAB_WORKLOADS='%s' is not a workload", name.c_str());
        const std::string &suite_name = spec->params.name;
        wanted.push_back(suite_name);
        if (std::none_of(base.begin(), base.end(),
                         [&](const WorkloadSpec &s) {
                             return s.params.name == suite_name;
                         })) {
            outside += " " + suite_name;
        }
    }
    if (!outside.empty())
        warn("RAB_WORKLOADS: not in this figure, skipped:%s",
             outside.c_str());
    std::vector<WorkloadSpec> selected;
    for (const WorkloadSpec &spec : base) {
        if (std::find(wanted.begin(), wanted.end(), spec.params.name)
                != wanted.end()) {
            selected.push_back(spec);
        }
    }
    return selected;
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

std::string
CellRunner::cellKey(const std::string &workload, RunaheadConfig config,
                    bool prefetch)
{
    return workload + "/" + runaheadConfigName(config)
        + (prefetch ? "+PF" : "");
}

CellRunner::CellRunner(const BenchOptions &options,
                       const std::vector<WorkloadSpec> &workloads,
                       const std::vector<CellVariant> &variants)
{
    CampaignSpec spec;
    spec.name = "bench";
    spec.instructions = options.instructions;
    spec.warmup = options.warmup;
    for (const WorkloadSpec &w : workloads)
        spec.workloads.push_back(w.params.name);
    for (const CellVariant &v : variants)
        spec.variants.push_back(makeVariant(v.first, v.second));
    const CampaignResult campaign = runCampaign(spec, options.threads);
    for (const PointResult &p : campaign.points) {
        if (!p.ok) {
            fatal("bench point %s/%s failed: %s", p.point.workload.c_str(),
                  p.point.variant.c_str(), p.error.c_str());
        }
        cells_.emplace(cellKey(p.point.workload, p.point.runahead,
                               p.point.prefetch),
                       p.result);
    }
}

const SimResult &
CellRunner::get(const WorkloadSpec &spec, RunaheadConfig config,
                bool prefetch) const
{
    const std::string key = cellKey(spec.params.name, config, prefetch);
    const auto it = cells_.find(key);
    if (it == cells_.end())
        panic("CellRunner: cell %s is outside the grid", key.c_str());
    return it->second;
}

} // namespace rab
