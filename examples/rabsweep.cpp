/**
 * @file
 * rabsweep — parallel sweep-campaign driver.
 *
 * Declares a workloads x configs x seeds grid (explicitly, via a
 * named preset, or as the grid a set of paper figures reads), executes
 * it on the src/sweep thread-pool engine, and emits the
 * machine-readable rab-sweep-manifest-v1 JSON report
 * (BENCH_sweep.json) that CI archives and the perf-regression gate
 * consumes. With --figures it prints those figures' tables in place
 * of the per-point table.
 *
 *   rabsweep --figures all --threads 4            # every table/figure
 *   rabsweep --figures fig9,fig10 --workloads mcf,libq
 *   rabsweep --preset fig9 --threads 8 --out BENCH_sweep.json
 *   rabsweep --workloads mcf,libq --configs baseline,hybrid+pf \
 *            --seeds 1,2,3 --instructions 50000
 *   rabsweep --preset smoke --gate bench/baseline.json
 *   rabsweep --preset smoke --threads 2 --write-baseline \
 *            bench/baseline.json
 *   rabsweep --preset fig9 --store .rabstore      # resumable
 *
 * With --store, completed points are persisted in a crash-safe result
 * store and a re-run of the same campaign (same code, same configs)
 * simulates only the missing points — kill it at any moment, run the
 * same command again, and it resumes. Ctrl-C is graceful: in-flight
 * points finish and are flushed, the partial manifest is written with
 * "interrupted": true, and the process exits 7.
 *
 * Exit codes: 0 success, 2 usage error, 5 some points failed (the
 * campaign itself still completed and the manifest was written),
 * 6 perf gate failed, 7 interrupted (partial manifest written).
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/number.hh"
#include "core/experiment.hh"
#include "sweep/campaign.hh"
#include "sweep/figures.hh"
#include "sweep/report.hh"
#include "sweep/store/result_store.hh"
#include "workloads/suite.hh"

using namespace rab;

namespace
{

struct Options
{
    std::string preset;
    std::vector<std::string> figures; ///< Names, or "all".
    std::vector<std::string> workloads;
    std::vector<std::string> mixSpecs;
    std::vector<std::string> configs;
    std::vector<std::uint64_t> seeds;
    std::uint64_t instructions = 0; ///< 0: preset/default sizing.
    std::uint64_t warmup = 0;
    int threads = 0; ///< 0: RAB_THREADS or hardware.
    std::string outPath = "BENCH_sweep.json";
    bool toStdout = false;
    bool canonical = false;
    std::string gatePath;
    double gateThreshold = 0.15;
    std::string baselineOutPath;
    bool listPresets = false;
    bool snapshotWarmup = false; ///< Shared checkpointed warmup.
    std::string storeDir; ///< Result-store root ("" = no store).
};

/** SIGINT latch: workers stop claiming new points. */
std::atomic<bool> g_interrupted{false};

void
onInterrupt(int)
{
    g_interrupted = true;
    // A second Ctrl-C kills the process the old-fashioned way.
    std::signal(SIGINT, SIG_DFL);
}

[[noreturn]] void
usage()
{
    std::fputs(
        "rabsweep - parallel sweep campaigns with JSON manifests\n"
        "\n"
        "  --preset NAME       fig9 | fig17 | smoke | active | cre |\n"
        "                      mix4 | interference\n"
        "  --figures A,B       paper tables and figures (table2,\n"
        "                      fig1..fig5, fig9..fig18, or all): run\n"
        "                      the one grid they read and print them\n"
        "                      in place of the per-point table\n"
        "  --workloads A,B     explicit workload axis (suite names);\n"
        "                      with --figures, narrows their rows\n"
        "  --configs A,B       config axis, each one of\n"
        "                      ",
        stdout);
    std::fputs(runaheadConfigCliList(22, 64).c_str(), stdout);
    std::fputs(
        "                      optionally with a +pf suffix (e.g.\n"
        "                      hybrid+pf); '|'-joined labels\n"
        "                      (hybrid|baseline) set one policy per\n"
        "                      core of a --mix point\n"
        "  --mix [LABEL=]A,B   multi-core mix axis entry: one point per\n"
        "                      variant with one core per workload, all\n"
        "                      sharing the LLC, MSHRs and DRAM\n"
        "                      (repeatable)\n"
        "  --seeds N,M         seed axis (0 = workload default)\n"
        "  --instructions N    measured instructions per point\n"
        "  --warmup N          warmup instructions per point\n"
        "  --threads N         worker threads (default or 0: RAB_THREADS\n"
        "                      or all hardware threads; 1 = serial)\n"
        "  --out FILE          manifest path (default BENCH_sweep.json)\n"
        "  --stdout            print the manifest instead of writing\n"
        "  --canonical         omit volatile fields (host, git, wall\n"
        "                      times) so output is byte-stable\n"
        "  --gate FILE         perf-regression gate against a baseline\n"
        "  --gate-threshold F  max relative throughput drop, in [0, 1]\n"
        "                      (default 0.15)\n"
        "  --write-baseline F  write a new baseline and exit\n"
        "  --snapshot-warmup   warm each (workload or mix, seed,\n"
        "                      prefetch) group once under the baseline\n"
        "                      policy, snapshot it, and fork every\n"
        "                      variant from the shared image (with\n"
        "                      --store the image itself is cached\n"
        "                      across runs)\n"
        "  --list-presets      describe the presets and exit\n"
        "  --store DIR         crash-safe result store: cached points\n"
        "                      are reused, fresh ones persisted, so a\n"
        "                      killed campaign resumes on re-run\n",
        stdout);
    std::exit(0);
}

/** A usage error with a one-line reason (exit 2, no help text). */
[[noreturn]] void
usageError(const std::string &reason)
{
    std::fprintf(stderr, "rabsweep: %s\n", reason.c_str());
    std::exit(2);
}

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> items;
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string item =
            list.substr(start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
        if (!item.empty())
            items.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return items;
}

ConfigVariant
parseVariant(const std::string &name)
{
    // parseVariantLabel throws on an unknown label, naming it.
    try {
        return parseVariantLabel(name);
    } catch (const std::exception &e) {
        usageError(std::string("--configs: ") + e.what());
    }
}

/** A grid axis names each entry once: reject the first of @p entries
 *  that repeats an earlier one, naming it and the flag's list. */
void
requireDistinct(const char *flag, const std::vector<std::string> &entries)
{
    std::string list;
    for (const std::string &entry : entries)
        list += (list.empty() ? "" : ",") + entry;
    for (auto it = entries.begin(); it != entries.end(); ++it) {
        if (std::find(entries.begin(), it, *it) != it) {
            usageError(strprintf("%s: '%s' repeats in '%s'", flag,
                                 it->c_str(), list.c_str()));
        }
    }
}

/** Reject a workload name the suite does not know. */
void
requireWorkload(const char *flag, const std::string &name)
{
    if (!findWorkload(name)) {
        usageError(strprintf("%s: unknown workload '%s'", flag, name.c_str()));
    }
}

void
describePresets()
{
    std::fputs(
        "fig9   full 29-workload suite x {baseline, runahead, buffer,\n"
        "       buffer-cc, hybrid, cre, cre-hybrid}, no prefetching;\n"
        "       40k/10k sizing\n"
        "fig17  medium+high suite x {baseline, runahead,\n"
        "       runahead-enhanced, buffer, buffer-cc, hybrid, cre,\n"
        "       cre-hybrid}; 40k/10k\n"
        "smoke  pinned CI campaign: {mcf, libq, omnetpp} x {baseline,\n"
        "       hybrid}; 150k/25k sizing — do not change without\n"
        "       regenerating bench/baseline.json\n"
        "active pinned CI campaign over low-MPKI workloads where the\n"
        "       fast-forward engine rarely fires, so throughput tracks\n"
        "       the active-window hot path: {calculix, hmmer, h264} x\n"
        "       {baseline, hybrid}; 150k/25k sizing — do not change\n"
        "       without regenerating bench/baseline-active.json\n"
        "cre    pinned CI campaign for the Continuous Runahead engine\n"
        "       gate: {mcf, libq, omnetpp} x {buffer-cc, cre,\n"
        "       cre-hybrid}; 150k/25k sizing — do not change without\n"
        "       regenerating bench/baseline-cre.json\n"
        "mix4   pinned CI multi-core campaign: the mcf+libq+omnetpp+\n"
        "       h264 shared-LLC/DRAM mix x {baseline, hybrid}; 60k/15k\n"
        "       per-core sizing — do not change without regenerating\n"
        "       bench/baseline-mix4.json\n"
        "interference\n"
        "       runahead-interference headline: the mix4 workloads\n"
        "       with per-core policies — all-baseline, all-hybrid,\n"
        "       all-buffer-cc, and hybrid/buffer-cc on the mcf core\n"
        "       only (neighbours baseline) — measuring what one\n"
        "       runahead core's extra MSHR/DRAM/LLC pressure does to\n"
        "       the chip; 60k/15k per-core sizing\n",
        stdout);
}

CampaignSpec
buildPreset(const std::string &preset)
{
    CampaignSpec spec;
    spec.name = preset;
    const auto add_suite = [&spec](const std::vector<WorkloadSpec> &s) {
        for (const WorkloadSpec &w : s)
            spec.workloads.push_back(w.params.name);
    };
    if (preset == "fig9") {
        add_suite(spec06Suite());
        for (const RunaheadConfig config :
             {RunaheadConfig::kBaseline, RunaheadConfig::kRunahead,
              RunaheadConfig::kRunaheadBuffer,
              RunaheadConfig::kRunaheadBufferCC,
              RunaheadConfig::kHybrid, RunaheadConfig::kCRE,
              RunaheadConfig::kCREHybrid})
            spec.variants.push_back(makeVariant(config, false));
        spec.instructions = 40'000;
        spec.warmup = 10'000;
    } else if (preset == "fig17") {
        add_suite(mediumHighSuite());
        for (const RunaheadConfig config :
             {RunaheadConfig::kBaseline, RunaheadConfig::kRunahead,
              RunaheadConfig::kRunaheadEnhanced,
              RunaheadConfig::kRunaheadBuffer,
              RunaheadConfig::kRunaheadBufferCC,
              RunaheadConfig::kHybrid, RunaheadConfig::kCRE,
              RunaheadConfig::kCREHybrid})
            spec.variants.push_back(makeVariant(config, false));
        spec.instructions = 40'000;
        spec.warmup = 10'000;
    } else if (preset == "smoke") {
        // Pinned: the CI perf gate's throughput baseline
        // (bench/baseline.json) is measured on exactly this grid.
        spec.workloads = {"mcf", "libq", "omnetpp"};
        spec.variants = {makeVariant(RunaheadConfig::kBaseline, false),
                         makeVariant(RunaheadConfig::kHybrid, false)};
        // Sized so the campaign takes O(seconds): long enough that
        // throughput is not timing noise, short enough for every CI
        // run.
        spec.instructions = 150'000;
        spec.warmup = 25'000;
    } else if (preset == "active") {
        // Pinned: the active-window gate baseline
        // (bench/baseline-active.json) is measured on exactly this
        // grid. All three workloads are MemIntensity::kLow, so the
        // cores commit nearly every cycle and the quiescent-window
        // fast-forward engine almost never engages — throughput here
        // is dominated by the per-cycle active path (rename, issue,
        // ROB/cache queries) that the hot-path indexes accelerate.
        spec.workloads = {"calculix", "hmmer", "h264"};
        spec.variants = {makeVariant(RunaheadConfig::kBaseline, false),
                         makeVariant(RunaheadConfig::kHybrid, false)};
        spec.instructions = 150'000;
        spec.warmup = 25'000;
    } else if (preset == "mix4") {
        // Pinned: the multi-core smoke gate's throughput baseline
        // (bench/baseline-mix4.json) is measured on exactly this
        // grid. One 4-core shared-memory point per variant; sized so
        // the slowest core (mcf) finishes in O(seconds).
        spec.mixes = {makeMix4()};
        spec.variants = {makeVariant(RunaheadConfig::kBaseline, false),
                         makeVariant(RunaheadConfig::kHybrid, false)};
        spec.instructions = 60'000;
        spec.warmup = 15'000;
    } else if (preset == "cre") {
        // Pinned: the Continuous Runahead gate's throughput baseline
        // (bench/baseline-cre.json) is measured on exactly this grid.
        // buffer-cc is the closest non-engine config, so the gate
        // catches regressions in the engine's advanceTo/prefetch hot
        // path specifically, not in shared runahead machinery.
        spec.workloads = {"mcf", "libq", "omnetpp"};
        spec.variants = {
            makeVariant(RunaheadConfig::kRunaheadBufferCC, false),
            makeVariant(RunaheadConfig::kCRE, false),
            makeVariant(RunaheadConfig::kCREHybrid, false)};
        spec.instructions = 150'000;
        spec.warmup = 25'000;
    } else if (preset == "interference") {
        // The headline multi-core experiment: hold the mix4 workload
        // assignment fixed and vary only which cores run ahead.
        // Comparing "hybrid on the mcf core, baseline neighbours"
        // against all-baseline isolates the interference a single
        // runahead core inflicts through the shared MSHR pool, DRAM
        // banks and LLC; the homogeneous rows bound both ends.
        spec.mixes = {makeMix4()};
        for (const char *label :
             {"baseline", "hybrid", "buffer-cc",
              "hybrid|baseline|baseline|baseline",
              "buffer-cc|baseline|baseline|baseline"})
            spec.variants.push_back(parseVariantLabel(label));
        spec.instructions = 60'000;
        spec.warmup = 15'000;
    } else {
        usageError(strprintf("unknown --preset '%s' (try --list-presets)",
                             preset.c_str()));
    }
    return spec;
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    const auto next = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usageError(strprintf("missing value after '%s'", argv[i]));
        return argv[++i];
    };
    // Numeric flags take exactly one number in the documented range.
    const auto checked = [](const char *flag, const char *text, auto lo,
                            auto hi) {
        const auto value = parseNumber(text, lo, hi);
        if (!value) {
            usageError(strprintf("%s expects %s, got '%s'", flag,
                                 numberRangeText(lo, hi).c_str(), text));
        }
        return *value;
    };
    const auto number = [&](int &i, auto lo, auto hi) {
        const char *flag = argv[i];
        return checked(flag, next(i), lo, hi);
    };
    constexpr std::uint64_t kU64Max =
        std::numeric_limits<std::uint64_t>::max();
    constexpr int kIntMax = std::numeric_limits<int>::max();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--preset")
            opts.preset = next(i);
        else if (arg == "--figures")
            opts.figures = splitList(next(i));
        else if (arg == "--workloads")
            opts.workloads = splitList(next(i));
        else if (arg == "--mix")
            opts.mixSpecs.push_back(next(i));
        else if (arg == "--configs")
            opts.configs = splitList(next(i));
        else if (arg == "--seeds") {
            for (const std::string &s : splitList(next(i))) {
                opts.seeds.push_back(checked("--seeds", s.c_str(),
                                             std::uint64_t{0}, kU64Max));
            }
        } else if (arg == "--instructions")
            opts.instructions = number(i, std::uint64_t{0}, kU64Max);
        else if (arg == "--warmup")
            opts.warmup = number(i, std::uint64_t{0}, kU64Max);
        else if (arg == "--threads")
            opts.threads = number(i, 0, kIntMax);
        else if (arg == "--out")
            opts.outPath = next(i);
        else if (arg == "--stdout")
            opts.toStdout = true;
        else if (arg == "--canonical")
            opts.canonical = true;
        else if (arg == "--gate")
            opts.gatePath = next(i);
        else if (arg == "--gate-threshold")
            opts.gateThreshold = number(i, 0.0, 1.0);
        else if (arg == "--write-baseline")
            opts.baselineOutPath = next(i);
        else if (arg == "--snapshot-warmup")
            opts.snapshotWarmup = true;
        else if (arg == "--list-presets")
            opts.listPresets = true;
        else if (arg == "--store")
            opts.storeDir = next(i);
        else if (arg == "--help" || arg == "-h")
            usage();
        else
            usageError("unknown flag '" + arg + "' (try --help)");
    }
    return opts;
}

/** The figures @p names select, in paper order; "all" selects every
 *  one. An unknown name is a usage error. */
std::vector<const Figure *>
selectFigures(const std::vector<std::string> &names)
{
    const auto named = [&names](const std::string &name) {
        return std::find(names.begin(), names.end(), name) != names.end();
    };
    for (const std::string &name : names) {
        if (name != "all" && !findFigure(name)) {
            usageError(strprintf("--figures: unknown figure '%s' (table2, "
                                 "fig1-fig5, fig9-fig18 or all)",
                                 name.c_str()));
        }
    }
    std::vector<const Figure *> selected;
    for (const Figure &figure : paperFigures()) {
        if (named("all") || named(figure.name))
            selected.push_back(&figure);
    }
    return selected;
}

/** The grid @p figures read: the figures fix its configs, and only
 *  --workloads narrows its rows. */
CampaignSpec
figureSpec(const Options &opts, const std::vector<const Figure *> &figures)
{
    const std::pair<const char *, bool> fixed[] = {
        {"--preset", !opts.preset.empty()},
        {"--configs", !opts.configs.empty()},
        {"--mix", !opts.mixSpecs.empty()},
        {"--seeds", !opts.seeds.empty()},
    };
    for (const auto &[flag, given] : fixed) {
        if (given) {
            usageError(strprintf("--figures cannot be combined with %s: "
                                 "the figures fix the grid",
                                 flag));
        }
    }
    try {
        return figureCampaign(figures, opts.workloads);
    } catch (const std::exception &e) {
        usageError(std::string("--workloads: ") + e.what());
    }
}

CampaignSpec
buildSpec(const Options &opts, const std::vector<const Figure *> &figures)
{
    requireDistinct("--workloads", opts.workloads);
    requireDistinct("--configs", opts.configs);
    std::vector<std::string> seeds;
    for (const std::uint64_t seed : opts.seeds)
        seeds.push_back(std::to_string(seed));
    requireDistinct("--seeds", seeds);

    CampaignSpec spec;
    if (!figures.empty())
        spec = figureSpec(opts, figures);
    else if (!opts.preset.empty())
        spec = buildPreset(opts.preset);
    else
        spec.name = "custom";
    if (figures.empty() && !opts.workloads.empty()) {
        spec.workloads = opts.workloads;
        for (const std::string &name : spec.workloads)
            requireWorkload("--workloads", name);
    }
    if (!opts.configs.empty()) {
        spec.variants.clear();
        for (const std::string &name : opts.configs)
            spec.variants.push_back(parseVariant(name));
    }
    if (!opts.mixSpecs.empty()) {
        spec.mixes.clear();
        for (const std::string &text : opts.mixSpecs) {
            try {
                spec.mixes.push_back(parseMixSpec(text));
            } catch (const std::exception &e) {
                usageError(std::string("--mix: ") + e.what());
            }
            const CoreMixSpec &mix = spec.mixes.back();
            for (const std::string &name : mix.workloads)
                requireWorkload("--mix", name);
            for (std::size_t m = 0; m + 1 < spec.mixes.size(); ++m) {
                if (spec.mixes[m].label == mix.label) {
                    usageError(strprintf("--mix: label '%s' repeats in '%s'",
                                         mix.label.c_str(), text.c_str()));
                }
            }
        }
    }
    if (!opts.seeds.empty())
        spec.seeds = opts.seeds;
    if (opts.instructions > 0)
        spec.instructions = opts.instructions;
    if (opts.warmup > 0)
        spec.warmup = opts.warmup;
    spec.snapshotWarmup = opts.snapshotWarmup;
    if ((spec.workloads.empty() && spec.mixes.empty())
        || spec.variants.empty())
        usageError("empty grid: give --preset, --workloads or --mix "
                   "(plus --configs)");
    return spec;
}

/** The campaign's totals and store traffic. */
void
printTotals(std::FILE *out, const CampaignResult &campaign)
{
    std::fprintf(out,
                 "%zu point(s), %zu failed, %zu skipped; "
                 "%d thread(s); wall %.2f s; %.3g instructions/s\n",
                 campaign.points.size(),
                 campaign.failedCount() - campaign.skippedCount(),
                 campaign.skippedCount(), campaign.threads,
                 campaign.wallSeconds,
                 campaignInstructionsPerSecond(campaign));
    if (campaign.storeHits + campaign.storeMisses > 0) {
        std::fprintf(out,
                     "store: %llu hit(s), %llu miss(es), %llu corrupt "
                     "record(s) discarded\n",
                     (unsigned long long)campaign.storeHits,
                     (unsigned long long)campaign.storeMisses,
                     (unsigned long long)campaign.storeCorrupt);
    }
    if (campaign.storeSnapshotHits + campaign.storeSnapshotMisses > 0) {
        std::fprintf(out, "warmup snapshots: %llu hit(s), %llu miss(es)\n",
                     (unsigned long long)campaign.storeSnapshotHits,
                     (unsigned long long)campaign.storeSnapshotMisses);
    }
}

/** One row per point, then the totals. */
void
printSummary(const CampaignResult &campaign)
{
    TextTable table(
        {"#", "workload", "variant", "seed", "status", "IPC", "wall s"});
    for (const PointResult &p : campaign.points) {
        const char *status = "FAILED";
        if (p.ok)
            status = p.cached ? "cached" : "ok";
        else if (!p.ran)
            status = "skipped";
        table.addRow({std::to_string(p.point.index), p.point.workload,
                      p.point.variant, std::to_string(p.point.seed),
                      status,
                      p.ok ? strprintf("%.3f", p.result.ipc) : "-",
                      strprintf("%.2f", p.wallSeconds)});
    }
    table.print();
    std::putchar('\n');
    printTotals(stdout, campaign);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const Options opts = parseArgs(argc, argv);
    if (opts.listPresets) {
        describePresets();
        return 0;
    }

    const std::vector<const Figure *> figures =
        selectFigures(opts.figures);
    const CampaignSpec spec = buildSpec(opts, figures);
    // Explicit --threads, then RAB_THREADS, then all hardware threads.
    const int threads = resolveThreads(opts.threads);

    std::unique_ptr<ResultStore> store;
    if (!opts.storeDir.empty()) {
        store = std::make_unique<ResultStore>(opts.storeDir);
        if (!store->ok())
            fatal("--store: %s", store->error().c_str());
    }

    std::fprintf(stderr,
                 "rabsweep: campaign '%s', %zu points on %d "
                 "thread(s)%s\n",
                 spec.name.c_str(), spec.pointCount(), threads,
                 store ? ", resumable (Ctrl-C is graceful)" : "");
    CampaignRunOptions run_options;
    run_options.store = store.get();
    run_options.stop = &g_interrupted;
    std::signal(SIGINT, onInterrupt);
    const CampaignResult campaign =
        runCampaign(spec, threads, run_options);
    std::signal(SIGINT, SIG_DFL);
    if (campaign.interrupted) {
        std::fprintf(stderr,
                     "rabsweep: interrupted — %zu of %zu point(s) "
                     "skipped; partial manifest follows%s\n",
                     campaign.skippedCount(), campaign.points.size(),
                     store ? " (re-run the same command to resume)"
                           : "");
    }

    if (!opts.baselineOutPath.empty()) {
        // Interruption takes precedence over every other verdict: a
        // partial campaign must never become a baseline (it would
        // silently lower the bar for every future gate).
        if (campaign.interrupted) {
            std::fprintf(stderr,
                         "rabsweep: refusing to write a baseline from "
                         "an interrupted (partial) campaign\n");
            return resolveSweepExitCode(true, false, false);
        }
        if (campaign.failedCount() > 0) {
            std::fprintf(stderr,
                         "rabsweep: refusing to write a baseline from "
                         "a campaign with failed points\n");
            return resolveSweepExitCode(false, true, false);
        }
        if (campaign.committedInstructions() == 0) {
            std::fprintf(stderr,
                         "rabsweep: refusing to write a baseline from "
                         "a campaign that simulated no point (all "
                         "served from the store)\n");
            return resolveSweepExitCode(false, true, false);
        }
        if (!writeJsonFile(opts.baselineOutPath,
                           makeBaseline(campaign))) {
            fatal("cannot write '%s'", opts.baselineOutPath.c_str());
        }
        std::printf("baseline (%.3g instructions/s) -> %s\n",
                    campaignInstructionsPerSecond(campaign),
                    opts.baselineOutPath.c_str());
        return 0;
    }

    const Json manifest = campaignManifest(campaign, opts.canonical);
    if (opts.toStdout) {
        manifest.write(std::cout);
    } else {
        if (!writeJsonFile(opts.outPath, manifest))
            fatal("cannot write '%s'", opts.outPath.c_str());
        if (!figures.empty() && campaign.failedCount() == 0) {
            // stdout carries the figures alone, so it splits at their
            // headings; the totals go to stderr.
            for (const Figure *figure : figures)
                std::fputs(renderFigure(*figure, campaign).c_str(), stdout);
            printTotals(stderr, campaign);
            std::fprintf(stderr, "manifest -> %s\n", opts.outPath.c_str());
        } else {
            printSummary(campaign);
            std::printf("manifest -> %s\n", opts.outPath.c_str());
        }
    }

    // Exit-code precedence lives in resolveSweepExitCode (and its
    // unit test): interruption means the grid was cut short, not
    // refuted — a gate verdict over partial data would be meaningless,
    // so the gate is not even evaluated.
    bool gate_failed = false;
    if (!campaign.interrupted && !opts.gatePath.empty()) {
        GateResult gate;
        try {
            gate = perfGate(campaign, readJsonFile(opts.gatePath),
                            opts.gateThreshold);
        } catch (const JsonError &e) {
            std::fprintf(stderr, "rabsweep: gate error: %s\n",
                         e.what());
            return resolveSweepExitCode(false, false, true);
        }
        std::printf("perf gate: %s — %s\n",
                    gate.pass ? "PASS" : "FAIL",
                    gate.message.c_str());
        gate_failed = !gate.pass;
    }
    return resolveSweepExitCode(campaign.interrupted,
                                campaign.failedCount() > 0,
                                gate_failed);
}
