#include "sweep/figures.hh"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hh"
#include "core/experiment.hh"

namespace rab
{

namespace
{

constexpr FigureCell kBaseline{RunaheadConfig::kBaseline, false};
constexpr FigureCell kRunahead{RunaheadConfig::kRunahead, false};
constexpr FigureCell kEnhanced{RunaheadConfig::kRunaheadEnhanced, false};
constexpr FigureCell kBuffer{RunaheadConfig::kRunaheadBuffer, false};
constexpr FigureCell kBufferCC{RunaheadConfig::kRunaheadBufferCC, false};
constexpr FigureCell kHybrid{RunaheadConfig::kHybrid, false};

/** @p cell with the stream prefetcher on. */
constexpr FigureCell
withPf(FigureCell cell)
{
    return {cell.first, true};
}

/** Percent formatting. */
std::string
pct(double fraction)
{
    return strprintf("%.1f%%", fraction * 100.0);
}

/** Signed percent difference of a ratio. */
std::string
pctDiff(double ratio)
{
    return strprintf("%+.1f%%", (ratio - 1.0) * 100.0);
}

std::string
num(double value)
{
    return strprintf("%.2f", value);
}

/** Mean of @p values; 0 for none. */
double
mean(const std::vector<double> &values)
{
    double sum = 0;
    for (const double v : values)
        sum += v;
    return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

/**
 * Table 2: the workloads classified by their baseline MPKI (high:
 * MPKI >= 10; medium: MPKI > 2; low: MPKI <= 2) against the paper's
 * classes.
 */
std::string
renderTable2(const FigureRows &rows)
{
    TextTable table({"workload", "MPKI", "measured class", "paper class",
                     "match"});
    int matches = 0;
    for (const WorkloadSpec &spec : rows.workloads()) {
        const SimResult &r =
            rows.get(spec, RunaheadConfig::kBaseline, false);
        MemIntensity measured = MemIntensity::kLow;
        if (r.mpki >= 10.0)
            measured = MemIntensity::kHigh;
        else if (r.mpki > 2.0)
            measured = MemIntensity::kMedium;
        const bool match = measured == spec.intensity;
        matches += match ? 1 : 0;
        table.addRow({spec.params.name, num(r.mpki),
                      intensityName(measured),
                      intensityName(spec.intensity),
                      match ? "yes" : "NO"});
    }
    return table.toString()
        + strprintf("\nclassification agreement: %d/%zu\n", matches,
                    rows.workloads().size());
}

/**
 * Figure 1: cycles stalled waiting for memory on the no-PF baseline,
 * with each workload's IPC. Paper shape: every medium/high intensity
 * workload stalls for over half its cycles and mostly runs at IPC < 1.
 */
std::string
renderFig1(const FigureRows &rows)
{
    TextTable table({"workload", "class", "stall %", "IPC", "MPKI"});
    double high_stall_min = 1.0;
    for (const WorkloadSpec &spec : rows.workloads()) {
        const SimResult &r =
            rows.get(spec, RunaheadConfig::kBaseline, false);
        if (spec.intensity == MemIntensity::kHigh)
            high_stall_min = std::min(high_stall_min, r.memStallFraction);
        table.addRow({spec.params.name, intensityName(spec.intensity),
                      pct(r.memStallFraction), num(r.ipc), num(r.mpki)});
    }
    return table.toString()
        + strprintf("\npaper: all high-intensity workloads stall > 50%% "
                    "of cycles.\nmeasured minimum high-intensity stall: "
                    "%s\n",
                    pct(high_stall_min).c_str());
}

/**
 * Figure 2: misses whose source data (everything needed to compute
 * the miss address) is on chip: the misses runahead can target.
 * Paper shape: most misses qualify; pointer chases are the exception.
 */
std::string
renderFig2(const FigureRows &rows)
{
    TextTable table({"workload", "class", "on-chip sources"});
    std::vector<double> fractions;
    for (const WorkloadSpec &spec : rows.workloads()) {
        const SimResult &r =
            rows.get(spec, RunaheadConfig::kBaseline, false);
        table.addRow({spec.params.name, intensityName(spec.intensity),
                      pct(r.fig2OnChipFraction)});
        if (r.mpki > 2.0)
            fractions.push_back(r.fig2OnChipFraction);
    }
    return table.toString()
        + strprintf("\nmean over medium+high intensity: %s (paper: most "
                    "source data is available on chip)\n",
                    pct(mean(fractions)).c_str());
}

/**
 * Figure 3: of the ops traditional runahead executes, those on a
 * dependence chain that generates a miss. Paper shape: a minority for
 * most workloads (mcf ~36%); omnetpp is the outlier.
 */
std::string
renderFig3(const FigureRows &rows)
{
    TextTable table({"workload", "class", "dependence chain",
                     "other ops"});
    for (const WorkloadSpec &spec : rows.workloads()) {
        const SimResult &r =
            rows.get(spec, RunaheadConfig::kRunahead, false);
        table.addRow({spec.params.name, intensityName(spec.intensity),
                      pct(r.necessaryFraction),
                      pct(std::max(0.0, 1.0 - r.necessaryFraction))});
    }
    return table.toString()
        + "\npaper: most runahead-executed ops are NOT needed to "
          "generate misses\n(mcf: only ~36% necessary; omnetpp: ~100% "
          "necessary).\n";
}

/**
 * Figure 4: of the miss chains in a runahead interval, those that
 * repeat a chain already seen in it. Paper shape: overwhelmingly
 * repeated, which is what makes looping one filtered chain work.
 */
std::string
renderFig4(const FigureRows &rows)
{
    TextTable table({"workload", "class", "repeated", "unique"});
    std::vector<double> repeated;
    for (const WorkloadSpec &spec : rows.workloads()) {
        const SimResult &r =
            rows.get(spec, RunaheadConfig::kRunahead, false);
        table.addRow({spec.params.name, intensityName(spec.intensity),
                      pct(r.repeatedFraction),
                      pct(std::max(0.0, 1.0 - r.repeatedFraction))});
        if (spec.intensity != MemIntensity::kLow)
            repeated.push_back(r.repeatedFraction);
    }
    return table.toString()
        + strprintf("\nmean repeated fraction (medium+high): %s (paper: "
                    "most chains repeat within an interval)\n",
                    pct(mean(repeated)).c_str());
}

/**
 * Figure 5: average length of the miss chains of traditional
 * runahead. Paper shape: under 32 uops except omnetpp, which sizes
 * the 32-uop runahead buffer.
 */
std::string
renderFig5(const FigureRows &rows)
{
    TextTable table({"workload", "class", "avg chain length",
                     "< 32 uops"});
    std::vector<double> lengths;
    for (const WorkloadSpec &spec : rows.workloads()) {
        const SimResult &r =
            rows.get(spec, RunaheadConfig::kRunahead, false);
        const double length = r.avgChainLength;
        const char *short_chain = "NO";
        if (length == 0)
            short_chain = "-";
        else if (length > 0 && length < 32)
            short_chain = "yes";
        table.addRow({spec.params.name, intensityName(spec.intensity),
                      strprintf("%.1f", length), short_chain});
        if (spec.intensity != MemIntensity::kLow && length > 0)
            lengths.push_back(length);
    }
    return table.toString()
        + strprintf("\nmean chain length (medium+high): %.1f uops "
                    "(paper: short, < 32 except omnetpp)\n",
                    mean(lengths));
}

/**
 * Figure 10: misses generated per runahead interval (the MLP each
 * mechanism uncovers), without and with the stream prefetcher. Paper
 * shape: the buffer generates over 2x traditional runahead's misses,
 * and still leads by ~80% with prefetching.
 */
std::string
renderFig10(const FigureRows &rows)
{
    TextTable table({"workload", "Runahead", "RA-Buffer", "Runahead+PF",
                     "RA-Buffer+PF"});
    double sums[4] = {};
    for (const WorkloadSpec &spec : rows.workloads()) {
        const double ra = rows.get(spec, RunaheadConfig::kRunahead, false)
                              .missesPerInterval;
        const double rb =
            rows.get(spec, RunaheadConfig::kRunaheadBufferCC, false)
                .missesPerInterval;
        const double ra_pf =
            rows.get(spec, RunaheadConfig::kRunahead, true)
                .missesPerInterval;
        const double rb_pf =
            rows.get(spec, RunaheadConfig::kRunaheadBufferCC, true)
                .missesPerInterval;
        table.addRow({spec.params.name, num(ra), num(rb), num(ra_pf),
                      num(rb_pf)});
        sums[0] += ra;
        sums[1] += rb;
        sums[2] += ra_pf;
        sums[3] += rb_pf;
    }
    std::string out = table.toString();
    const double count = static_cast<double>(rows.workloads().size());
    if (count > 0) {
        out += strprintf("\naverages: RA %.2f, RAB %.2f (%.2fx, paper "
                         "~2x); RA+PF %.2f, RAB+PF %.2f (%.2fx, paper "
                         "~1.8x)\n",
                         sums[0] / count, sums[1] / count,
                         sums[0] > 0 ? sums[1] / sums[0] : 0,
                         sums[2] / count, sums[3] / count,
                         sums[2] > 0 ? sums[3] / sums[2] : 0);
    }
    return out;
}

/** One column of a figure normalised to the no-PF baseline. */
struct Column
{
    const char *header; ///< Table column heading.
    const char *label;  ///< GMean line label.
    FigureCell cell;
    const char *paper; ///< The paper's GMean.
};

/** A cell's metric over the no-PF baseline's. */
using Ratio = double (*)(const SimResult &cell, const SimResult &base);

double
ipcRatio(const SimResult &cell, const SimResult &base)
{
    return cell.ipc / base.ipc;
}

double
dramRatio(const SimResult &cell, const SimResult &base)
{
    if (base.dramRequests == 0)
        return 1.0;
    return static_cast<double>(cell.dramRequests)
        / static_cast<double>(base.dramRequests);
}

double
energyRatio(const SimResult &cell, const SimResult &base)
{
    return cell.energy.totalJ / base.energy.totalJ;
}

/**
 * Figs 9 and 15-18: each column's metric over the no-PF baseline's as
 * a signed percentage, then each column's GMean over the medium+high
 * rows beside the paper's, its label padded to @p label_width. Rows of
 * the whole suite (Fig 9) add a class column.
 */
Figure
normalisedFigure(const char *name, const char *title, bool medium_high,
                 Ratio ratio, std::vector<Column> columns,
                 const char *gmean_heading, int label_width)
{
    std::vector<FigureCell> cells{kBaseline};
    for (const Column &column : columns)
        cells.push_back(column.cell);
    const auto render = [=, columns = std::move(columns)](
                            const FigureRows &rows) {
        std::vector<std::string> headers{"workload"};
        if (!medium_high)
            headers.emplace_back("class");
        for (const Column &column : columns)
            headers.emplace_back(column.header);
        TextTable table(std::move(headers));
        std::vector<std::vector<double>> diffs(columns.size());
        for (const WorkloadSpec &spec : rows.workloads()) {
            const SimResult &base =
                rows.get(spec, RunaheadConfig::kBaseline, false);
            std::vector<std::string> row{spec.params.name};
            if (!medium_high)
                row.emplace_back(intensityName(spec.intensity));
            for (std::size_t i = 0; i < columns.size(); ++i) {
                const FigureCell &cell = columns[i].cell;
                const double r =
                    ratio(rows.get(spec, cell.first, cell.second), base);
                row.push_back(pctDiff(r));
                if (spec.intensity != MemIntensity::kLow)
                    diffs[i].push_back(r - 1.0);
            }
            table.addRow(std::move(row));
        }
        std::string out =
            table.toString() + "\n" + gmean_heading + "\n";
        for (std::size_t i = 0; i < columns.size(); ++i) {
            out += strprintf("  %-*s measured %+6.1f%%   (paper %s)\n",
                             label_width, columns[i].label,
                             100.0 * geomeanSpeedup(diffs[i]),
                             columns[i].paper);
        }
        return out;
    };
    return {name, title, medium_high, std::move(cells), render};
}

/**
 * Figs 11-14: one value of @p cell per medium+high workload, as a
 * percentage, then their average beside the paper's.
 */
Figure
averageFigure(const char *name, const char *title, FigureCell cell,
              const char *header, double SimResult::*metric,
              const char *average_label, const char *paper_note)
{
    const auto render = [=](const FigureRows &rows) {
        TextTable table({"workload", header});
        std::vector<double> values;
        for (const WorkloadSpec &spec : rows.workloads()) {
            const double value =
                rows.get(spec, cell.first, cell.second).*metric;
            table.addRow({spec.params.name, pct(value)});
            values.push_back(value);
        }
        return table.toString() + "\n" + average_label + ": "
            + pct(mean(values)) + " " + paper_note + "\n";
    };
    return {name, title, true, {cell}, render};
}

std::vector<Figure>
makePaperFigures()
{
    return {
        {"table2", "Table 2: workload classification by memory intensity",
         false, {kBaseline}, renderTable2},
        {"fig1", "Figure 1: cycles stalled waiting for memory (baseline)",
         false, {kBaseline}, renderFig1},
        {"fig2", "Figure 2: misses with source data available on chip",
         false, {kBaseline}, renderFig2},
        {"fig3", "Figure 3: runahead ops on miss dependence chains", false,
         {kRunahead}, renderFig3},
        {"fig4", "Figure 4: repeated vs unique miss dependence chains",
         false, {kRunahead}, renderFig4},
        {"fig5", "Figure 5: average miss dependence chain length (uops)",
         false, {kRunahead}, renderFig5},
        // Paper GMeans over the medium+high workloads: Runahead +14.3%,
        // Runahead Buffer +14.4%, RAB+CC +17.2%, Hybrid +21.0%.
        normalisedFigure("fig9", "Figure 9: IPC vs no-prefetching baseline",
                         false, ipcRatio,
                         {{"Runahead", "Runahead", kRunahead, "+14.3%"},
                          {"RA-Buffer", "Runahead-Buffer", kBuffer,
                           "+14.4%"},
                          {"RAB+CC", "RA-Buffer+CC", kBufferCC, "+17.2%"},
                          {"Hybrid", "Hybrid", kHybrid, "+21.0%"}},
                         "GMean speedup over medium+high intensity:", 18),
        {"fig10", "Figure 10: cache misses per runahead interval", true,
         {kRunahead, kBufferCC, withPf(kRunahead), withPf(kBufferCC)},
         renderFig10},
        // Figs 11-13 run on the Runahead Buffer + Chain Cache system;
        // Fig 14 splits the hybrid policy's runahead cycles.
        averageFigure("fig11", "Figure 11: cycles in runahead buffer mode",
                      kBufferCC, "buffer-mode cycles",
                      &SimResult::bufferCycleFraction, "average",
                      "(paper: 47% of cycles, front-end clock-gated "
                      "throughout)"),
        averageFigure("fig12", "Figure 12: chain cache hit rate", kBufferCC,
                      "hit rate", &SimResult::chainCacheHitRate,
                      "average hit rate", "(paper: high, mostly > 90%)"),
        // A hit need not match the chain the ROB would give now:
        // runahead is a prefetching heuristic, so a stale chain is
        // usually still worth running.
        averageFigure("fig13",
                      "Figure 13: chain cache hits matching the ROB chain",
                      kBufferCC, "exact-match hits",
                      &SimResult::chainCacheExactRate,
                      "average exact-match rate", "(paper: 53%)"),
        averageFigure("fig14",
                      "Figure 14: hybrid policy: buffer share of runahead "
                      "cycles",
                      kHybrid, "buffer share",
                      &SimResult::hybridBufferFraction,
                      "average buffer share",
                      "(paper: 71%; omnetpp and sphinx lean on "
                      "traditional runahead)"),
        normalisedFigure(
            "fig15",
            "Figure 15: IPC with stream prefetching vs no-PF baseline", true,
            ipcRatio,
            {{"PF", "PF", withPf(kBaseline), "+37.5%"},
             {"Runahead+PF", "Runahead+PF", withPf(kRunahead), "+48.3%"},
             {"RA-Buffer+PF", "RA-Buffer+PF", withPf(kBuffer), "+47.1%"},
             {"RAB+CC+PF", "RAB+CC+PF", withPf(kBufferCC), "+48.2%"},
             {"Hybrid+PF", "Hybrid+PF", withPf(kHybrid), "+51.5%"}},
            "GMean speedup over medium+high intensity (vs no-PF "
            "baseline):",
            14),
        // Runahead fetches with fragments of the program's own code, so
        // it costs far less bandwidth than the stream prefetcher.
        normalisedFigure(
            "fig16", "Figure 16: extra DRAM requests vs no-PF baseline",
            true, dramRatio,
            {{"Runahead", "Runahead", kRunahead, "+4%"},
             {"RA-Buffer", "RA-Buffer", kBuffer, "+12%"},
             {"RAB+CC", "RAB+CC", kBufferCC, "+12%"},
             {"Hybrid", "Hybrid", kHybrid, "+9%"},
             {"PF", "PF", withPf(kBaseline), "+38%"}},
            "GMean extra DRAM traffic (medium+high):", 10),
        // System (chip + DRAM) energy. Traditional runahead never rests
        // the front-end; the buffer clock-gates it.
        normalisedFigure(
            "fig17", "Figure 17: energy vs no-PF baseline", true,
            energyRatio,
            {{"Runahead", "Runahead", kRunahead, "+44.0%"},
             {"RA-Enhanced", "Runahead-Enhanced", kEnhanced, "+9.0%"},
             {"RA-Buffer", "Runahead-Buffer", kBuffer, "-4.4%"},
             {"RAB+CC", "RA-Buffer+CC", kBufferCC, "-6.7%"},
             {"Hybrid", "Hybrid", kHybrid, "-2.3%"}},
            "GMean energy difference (medium+high):", 18),
        normalisedFigure(
            "fig18", "Figure 18: energy with prefetching vs no-PF baseline",
            true, energyRatio,
            {{"PF", "PF", withPf(kBaseline), "-19.5%"},
             {"Runahead+PF", "Runahead+PF", withPf(kRunahead), "-1.7%"},
             {"RA-Enhanced+PF", "RA-Enhanced+PF", withPf(kEnhanced),
              "-15.4%"},
             {"RA-Buffer+PF", "RA-Buffer+PF", withPf(kBuffer), "-20.8%"},
             {"RAB+CC+PF", "RAB+CC+PF", withPf(kBufferCC), "-22.5%"},
             {"Hybrid+PF", "Hybrid+PF", withPf(kHybrid), "-19.9%"}},
            "GMean energy difference (medium+high, vs no-PF baseline):",
            16),
    };
}

} // namespace

FigureRows::FigureRows(const CampaignResult &campaign, bool medium_high)
    : campaign_(campaign)
{
    const std::vector<std::string> &ran = campaign.spec.workloads;
    for (const WorkloadSpec &spec : spec06Suite()) {
        if (medium_high && spec.intensity == MemIntensity::kLow)
            continue;
        if (std::find(ran.begin(), ran.end(), spec.params.name)
            != ran.end()) {
            workloads_.push_back(spec);
        }
    }
}

const SimResult &
FigureRows::get(const WorkloadSpec &workload, RunaheadConfig config,
                bool prefetch) const
{
    for (const PointResult &p : campaign_.points) {
        if (p.ok && !p.point.isMix()
            && p.point.workload == workload.params.name
            && p.point.runahead == config
            && p.point.prefetch == prefetch) {
            return p.result;
        }
    }
    panic("FigureRows: no ok point for cell %s/%s%s in the campaign",
          workload.params.name.c_str(), runaheadConfigName(config),
          prefetch ? "+PF" : "");
}

const std::vector<Figure> &
paperFigures()
{
    static const std::vector<Figure> figures = makePaperFigures();
    return figures;
}

const Figure *
findFigure(const std::string &name)
{
    for (const Figure &figure : paperFigures()) {
        if (figure.name == name)
            return &figure;
    }
    return nullptr;
}

CampaignSpec
figureCampaign(const std::vector<const Figure *> &figures,
               const std::vector<std::string> &workloads)
{
    const bool whole_suite =
        std::any_of(figures.begin(), figures.end(),
                    [](const Figure *f) { return !f->mediumHigh; });
    std::vector<std::string> wanted;
    for (const std::string &name : workloads) {
        const WorkloadSpec *spec = findWorkload(name);
        if (!spec) {
            throw std::runtime_error(
                strprintf("unknown workload '%s'", name.c_str()));
        }
        if (!whole_suite && spec->intensity == MemIntensity::kLow) {
            throw std::runtime_error(
                strprintf("no selected figure has a row for low-intensity "
                          "workload '%s'",
                          name.c_str()));
        }
        wanted.push_back(spec->params.name);
    }

    CampaignSpec spec;
    spec.name = figures.size() == 1 ? figures.front()->name : "figures";
    for (const WorkloadSpec &w : spec06Suite()) {
        const bool row = whole_suite || w.intensity != MemIntensity::kLow;
        const bool kept = wanted.empty()
            || std::find(wanted.begin(), wanted.end(), w.params.name)
                != wanted.end();
        if (row && kept)
            spec.workloads.push_back(w.params.name);
    }
    for (const bool prefetch : {false, true}) {
        for (const RunaheadConfigName &names : kRunaheadConfigNames) {
            const FigureCell cell{names.config, prefetch};
            const bool read =
                std::any_of(figures.begin(), figures.end(),
                            [&](const Figure *f) {
                                return std::find(f->cells.begin(),
                                                 f->cells.end(), cell)
                                    != f->cells.end();
                            });
            if (read)
                spec.variants.push_back(makeVariant(cell.first, prefetch));
        }
    }
    return spec;
}

std::string
renderFigure(const Figure &figure, const CampaignResult &campaign)
{
    return "=== " + figure.title + " ===\n\n"
        + figure.render(FigureRows(campaign, figure.mediumHigh));
}

} // namespace rab
