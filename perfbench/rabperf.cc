/**
 * @file
 * rabperf: simulator-throughput benchmark over three workloads, driven
 * in-process through the library's public API only.
 *
 *   rabperf --workload memory-bound|compute-bound|campaign --seed N
 *           --seconds S --trace 0|1 --workdir DIR [--git-sha SHA]
 *           [--smoke]
 *   rabperf --selfcheck
 *
 * --trace 0 repeats untraced passes for S seconds and reports the
 * end-to-end metrics; --trace 1 alternates untraced and traced passes
 * and reports the per-layer metrics (see perfbench/README.md). Report
 * lines come first; the last stdout line is one JSON object with the
 * keys correct, attempted, failed and metrics. --selfcheck verifies
 * that the traced tick loop reproduces Simulation::run() exactly.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/profiler.hh"
#include "core/experiment.hh"
#include "driver.hh"
#include "snapshot/snapshot.hh"
#include "sweep/campaign.hh"
#include "sweep/report.hh"
#include "sweep/store/result_store.hh"
#include "timing.hh"

namespace fs = std::filesystem;
using namespace perfbench;

namespace
{

// ---------------------------------------------------------------------
// Options, environment guard, output
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    bool selfcheck = false;
    std::string workdir = ".bench_build/rabperf-work";
    std::string gitSha = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "rabperf: %s\nusage: rabperf --workload "
                 "memory-bound|compute-bound|campaign --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR] "
                 "[--git-sha SHA] [--smoke]\n       rabperf --selfcheck\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            o.trace = value() != "0";
        else if (arg == "--workdir")
            o.workdir = value();
        else if (arg == "--git-sha")
            o.gitSha = value();
        else if (arg == "--smoke")
            o.smoke = true;
        else if (arg == "--selfcheck")
            o.selfcheck = true;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (!o.selfcheck && o.workload.empty())
        usage("--workload is required");
    return o;
}

/**
 * Refuse to measure a program other than the one users run: the
 * invariant checker, the phase profiler and bench thread overrides all
 * change what a run does, and so does a build without optimization.
 */
void
guardEnvironment()
{
    for (const char *var : {"RAB_CHECK_LEVEL", "RAB_CHECK_POLICY",
                            "RAB_PROFILE", "RAB_THREADS"}) {
        if (std::getenv(var)) {
            std::fprintf(stderr,
                         "rabperf: refusing to run with %s set: it "
                         "changes the program being measured\n",
                         var);
            std::exit(3);
        }
    }
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "rabperf: refusing to run an unoptimized build\n");
    std::exit(3);
#endif
    if (rab::Profiler::enabled()) {
        std::fprintf(stderr, "rabperf: refusing to run with the phase "
                             "profiler enabled\n");
        std::exit(3);
    }
}

/** Metrics in insertion order, printed as the result line's object. */
class MetricSet
{
  public:
    void add(const std::string &name, double value, const char *unit)
    {
        if (!std::isfinite(value))
            value = 0;
        entries_.push_back({name, value, unit});
    }

    std::string json() const
    {
        std::string out = "{";
        char buf[64];
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            std::snprintf(buf, sizeof(buf), "%.17g", e.value);
            out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf
                + ", \"unit\": \"" + e.unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/**
 * Output correctness. Every execution of a point must succeed and
 * produce the same stat-payload digest as the first execution of the
 * same point anywhere in this run: across repeats, between traced and
 * untraced passes, and between a campaign's cold (simulated) and warm
 * (store read) passes.
 */
class Verifier
{
  public:
    void point(const std::string &key, bool ok, std::uint64_t digest,
               const std::string &error, const char *where)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++attempted_;
        if (ok)
            sameLocked(key, digest, where);
        else
            failLocked(std::string(where) + " " + key + ": " + error);
    }

    /** A digest that must repeat exactly (not itself a point). */
    void same(const std::string &key, std::uint64_t digest,
              const char *where)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        sameLocked(key, digest, where);
    }

    void fail(const std::string &what)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        failLocked(what);
    }

    /** @{ Read once every pass has finished. */
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    /** @} */

  private:
    void sameLocked(const std::string &key, std::uint64_t digest,
                    const char *where)
    {
        const auto [it, fresh] = digests_.emplace(key, digest);
        if (!fresh && it->second != digest) {
            failLocked(std::string(where) + " " + key + ": stats digest "
                       + rab::hex64(digest) + " != first run's "
                       + rab::hex64(it->second));
        }
    }

    void failLocked(const std::string &what)
    {
        ++failed_;
        if (failed_ <= 20)
            std::printf("FAIL %s\n", what.c_str());
    }

    std::mutex mutex_; ///< Campaign rounds verify from two threads.
    std::map<std::string, std::uint64_t> digests_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * Peak resident set of this process image in MiB: VmHWM, which starts
 * afresh at exec. (getrusage's ru_maxrss would also count the parent's
 * pages the process was forked with before exec.) Read after the first
 * pass or round, which runs alone: later ones run two at once.
 */
double
peakRssMb()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (!status)
        return 0;
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof(line), status)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::atof(line + 6);
    }
    std::fclose(status);
    return kib / 1024.0;
}

double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

/**
 * Run @p round at least @p min_rounds times, then again while the next
 * round, assumed as long as the last, still ends within @p seconds.
 */
void
repeatFor(double seconds, int min_rounds,
          const std::function<void(int)> &round)
{
    const Clock::time_point start = Clock::now();
    double last = 0;
    for (int n = 0; n < min_rounds || secondsSince(start) + last <= seconds;
         ++n) {
        const Clock::time_point t = Clock::now();
        round(n);
        last = secondsSince(t);
    }
}

/** "name n=.. p50=.. p<tail>=.." over per-call samples (seconds). */
void
printSpan(const char *name, const std::vector<double> &samples)
{
    const double level = tailLevel(samples.size());
    std::printf("span %-22s n=%-6zu p50=%.6fs p%g=%.6fs\n", name,
                samples.size(), median(samples), level,
                percentile(samples, level));
}

// ---------------------------------------------------------------------
// Per-pass aggregation shared by every workload
// ---------------------------------------------------------------------

const char *const kVariants[] = {"baseline", "runahead", "buffer-cc",
                                 "hybrid", "cre", "cre-hybrid"};
const char *const kModeNames[] = {"normal", "traditional", "buffer"};

/** Single-core points of one pass, timed per layer. */
struct GridPass
{
    std::vector<PointSpec> points; ///< Parallel to runs.
    std::vector<PointRun> runs;
    /** Warmup-image simulations (campaign replica): build, construct
     *  and warmup spans only, counted with the points' spans. */
    std::vector<PointRun> setups;
    TickTrace trace;      ///< Traced passes only.
    double wallS = 0;     ///< Whole pass, build to collect.
    double captureS = 0;  ///< Warmup-image captures (campaign replica).
    double putS = 0;      ///< ResultStore::put (campaign replica).
    double lookupS = 0;   ///< ResultStore::lookup (campaign replica).

    double sum(double PointRun::*field) const
    {
        double s = 0;
        for (const PointRun &r : setups)
            s += r.*field;
        for (const PointRun &r : runs)
            s += r.*field;
        return s;
    }

    std::uint64_t instructions() const
    {
        std::uint64_t n = 0;
        for (const PointRun &r : runs)
            n += r.ok ? r.result.instructions : 0;
        return n;
    }

    double stat(const char *name) const
    {
        double s = 0;
        for (const PointRun &r : runs) {
            const auto it = r.stats.find(name);
            s += it == r.stats.end() ? 0 : it->second;
        }
        return s;
    }
};

/** Median over passes of @p f. */
double
medianOver(const std::vector<GridPass> &passes,
           const std::function<double(const GridPass &)> &f)
{
    std::vector<double> values;
    for (const GridPass &p : passes)
        values.push_back(f(p));
    return median(values);
}

/**
 * Each point's fastest repeat over a run's passes. The host is shared:
 * other tenants' load halves the simulator's speed for seconds to tens
 * of seconds at a time, and the fastest repeat of a point is the one
 * they disturbed least, so sums of these stay comparable between runs
 * made at different times. Repeats come from two threads at once, so
 * each point samples two host CPUs. Kept per point instead of per
 * pass, so the bookkeeping (and the peak RSS it adds) does not grow
 * with the number of passes.
 */
struct FastestRepeats
{
    std::vector<double> total; ///< Whole point: build to collect.
    std::vector<double> setup; ///< Build + construct + warmup.

    void update(const GridPass &pass)
    {
        total.resize(pass.runs.size(), INFINITY);
        setup.resize(pass.runs.size(), INFINITY);
        for (std::size_t i = 0; i < pass.runs.size(); ++i) {
            const PointRun &r = pass.runs[i];
            total[i] = std::min(total[i],
                                r.setupS() + r.measuredS + r.collectS);
            setup[i] = std::min(setup[i], r.setupS());
        }
    }
};

double
sum(const std::vector<double> &values)
{
    double s = 0;
    for (const double v : values)
        s += v;
    return s;
}

/** Measured + collect host seconds per committed instruction, in ns,
 *  for the points of @p variant in @p pass. */
double
nsPerInstr(const GridPass &pass, const std::string &variant)
{
    double seconds = 0;
    double instructions = 0;
    for (std::size_t i = 0; i < pass.runs.size(); ++i) {
        if (pass.points[i].variant != variant || !pass.runs[i].ok)
            continue;
        seconds += pass.runs[i].measuredS + pass.runs[i].collectS;
        instructions += static_cast<double>(pass.runs[i].result.instructions);
    }
    return ratio(seconds * 1e9, instructions);
}

/**
 * The per-layer metrics of the core, backend, runahead and memory
 * layers: host times from the traced passes, per-variant cost from the
 * untraced ones, simulated counts from the (exactly repeating) stat
 * payload of the first untraced pass.
 */
void
addCoreLayers(const std::vector<GridPass> &untraced,
              const std::vector<GridPass> &traced, MetricSet &m)
{
    const GridPass &first = untraced.front();
    const auto span = [&](double PointRun::*field) {
        return medianOver(traced, [field](const GridPass &p) {
            return p.sum(field);
        });
    };
    m.add("workloads.build_s", span(&PointRun::buildS), "s");
    m.add("core.construct_s", span(&PointRun::constructS), "s");
    m.add("core.warmup_s", span(&PointRun::warmupS), "s");
    const double measured = span(&PointRun::measuredS);
    const double collect = span(&PointRun::collectS);
    m.add("core.measured_s", measured, "s");
    m.add("core.collect_s", collect, "s");
    const auto untraced_span = [&](double PointRun::*field) {
        return medianOver(untraced, [field](const GridPass &p) {
            return p.sum(field);
        });
    };
    const double untraced_measured = untraced_span(&PointRun::measuredS);
    const double overhead = measured + collect - untraced_measured
        - untraced_span(&PointRun::collectS);
    m.add("core.tracing_overhead_s", overhead, "s");

    TickTrace ticks;
    for (const GridPass &p : traced)
        ticks.merge(p.trace);
    for (int mode = 0; mode < TickTrace::kModes; ++mode) {
        const NsHistogram &h = ticks.tickNs[mode];
        const std::string base = std::string("core.tick_ns.")
            + kModeNames[mode];
        const double level = tailLevel(h.count());
        m.add(base + ".p50", h.percentile(50), "ns");
        m.add(base + ".tail", h.count() ? h.percentile(level) : 0, "ns");
        m.add(base + ".n", static_cast<double>(h.count()), "count");
        std::printf("ticks %-11s n=%-9llu p50=%.0fns p%g=%.0fns\n",
                    kModeNames[mode], (unsigned long long)h.count(),
                    h.percentile(50), level, h.percentile(level));
    }
    for (int mode = 0; mode < TickTrace::kModes; ++mode) {
        m.add(std::string("core.mode_s.") + kModeNames[mode],
              medianOver(traced,
                         [mode](const GridPass &p) {
                             return p.trace.modeSeconds[mode];
                         }),
              "s");
    }
    for (int mode = 0; mode < TickTrace::kModes; ++mode) {
        m.add(std::string("core.mode_ticks.") + kModeNames[mode],
              static_cast<double>(traced.front().trace.modeTicks[mode]),
              "count");
    }
    m.add("core.ff_s",
          medianOver(traced,
                     [](const GridPass &p) { return p.trace.ffSeconds; }),
          "s");

    double cycles = 0;
    for (const PointRun &r : first.runs)
        cycles += static_cast<double>(r.result.cycles);
    const double instructions = static_cast<double>(first.instructions());
    const double skipped = first.stat("core.fastforward.skipped_cycles");
    m.add("core.ff_windows", first.stat("core.fastforward.windows"),
          "count");
    m.add("core.ff_skipped_frac", ratio(skipped, cycles), "ratio");
    m.add("core.instructions", instructions, "count");
    m.add("core.cycles", cycles, "count");
    m.add("core.ticked_mcycles_per_s",
          ratio(cycles - skipped, untraced_measured) / 1e6, "Mcycle/s");
    std::printf("base  instructions=%.0f cycles=%.0f skipped=%.0f\n",
                instructions, cycles, skipped);

    std::map<std::string, double> ns;
    for (const char *v : kVariants) {
        ns[v] = medianOver(untraced, [v](const GridPass &p) {
            return nsPerInstr(p, v);
        });
        m.add(std::string("core.ns_per_instr.") + v, ns[v], "ns");
    }
    for (const char *v : kVariants) {
        if (std::strcmp(v, "baseline") != 0)
            m.add(std::string("core.cost_ratio.") + v,
                  ratio(ns[v], ns["baseline"]), "ratio");
    }

    m.add("backend.renamed_per_instr",
          ratio(first.stat("core.renamed_uops"), instructions), "ratio");
    m.add("backend.squashed_per_instr",
          ratio(first.stat("core.squashed_uops"), instructions), "ratio");
    m.add("backend.rs_wakeups", first.stat("core.rs_wakeups"), "count");

    m.add("runahead.intervals", first.stat("core.runahead.intervals"),
          "count");
    m.add("runahead.cycles_traditional_frac",
          ratio(first.stat("core.runahead.cycles_traditional"), cycles),
          "ratio");
    m.add("runahead.cycles_buffer_frac",
          ratio(first.stat("core.runahead.cycles_buffer"), cycles),
          "ratio");
    m.add("runahead.pseudo_retired_per_instr",
          ratio(first.stat("core.pseudo_retired_uops"), instructions),
          "ratio");
    const double cc_hits = first.stat("core.runahead.chain_cache.hits");
    const double cc_lookups =
        cc_hits + first.stat("core.runahead.chain_cache.misses");
    const double gen_attempts =
        first.stat("core.runahead.chain_gen.attempts");
    const double gen_ok =
        first.stat("core.runahead.chain_gen.generated_chains");
    const double pf_issued = first.stat("mem.engine.prefetches_issued");
    const double pf_timely = first.stat("mem.engine.prefetches_timely");
    m.add("runahead.chain_cache.hit_rate", ratio(cc_hits, cc_lookups),
          "ratio");
    m.add("runahead.chain_gen.success_rate", ratio(gen_ok, gen_attempts),
          "ratio");
    m.add("runahead.engine.timely_frac", ratio(pf_timely, pf_issued),
          "ratio");
    m.add("runahead.engine.uops_executed",
          first.stat("mem.engine.uops_executed"), "count");
    std::printf("base  chain_cache lookups=%.0f chain_gen attempts=%.0f "
                "engine prefetches_issued=%.0f\n",
                cc_lookups, gen_attempts, pf_issued);

    const double llc_misses = first.stat("mem.llc_demand_misses");
    double dram = 0;
    for (const PointRun &r : first.runs)
        dram += static_cast<double>(r.result.dramRequests);
    m.add("memory.llc_demand_mpki", ratio(1000 * llc_misses, instructions),
          "1/kinstr");
    m.add("memory.dram_requests", dram, "count");
    m.add("memory.mshr_merges", first.stat("mem.mshr_merges"), "count");
    m.add("memory.queue_rejects", first.stat("mem.queue_rejects"),
          "count");
}

/** Spans of the traced passes, per call. */
void
printPointSpans(const std::vector<GridPass> &traced)
{
    const auto samples = [&](double PointRun::*field) {
        std::vector<double> v;
        for (const GridPass &p : traced) {
            for (const auto *runs : {&p.setups, &p.runs})
                for (const PointRun &r : *runs)
                    if (r.*field > 0)
                        v.push_back(r.*field);
        }
        return v;
    };
    printSpan("workloads.build", samples(&PointRun::buildS));
    printSpan("core.construct", samples(&PointRun::constructS));
    printSpan("core.warmup", samples(&PointRun::warmupS));
    printSpan("snapshot.restore", samples(&PointRun::restoreS));
    printSpan("core.measured", samples(&PointRun::measuredS));
    printSpan("core.collect", samples(&PointRun::collectS));
}

void
addEndToEnd(double minstr_per_s, double setup_s, double peak_rss_mb,
            MetricSet &m)
{
    m.add("minstr_per_s", minstr_per_s, "Minstr/s");
    m.add("setup_s", setup_s, "s");
    m.add("peak_rss_mb", peak_rss_mb, "MB");
}

/**
 * The simulated outcome, which repeats exactly for a given seed: a
 * speed-only change leaves both numbers as they are. The IPC geomean
 * is a per-layer metric (traced runs) because it has no better
 * direction: any change to it means the model changed.
 */
void
reportOutcome(const std::vector<std::uint64_t> &point_digests,
              const std::vector<double> &ipcs, bool traced, MetricSet &m)
{
    std::string text;
    for (const std::uint64_t d : point_digests)
        text += rab::hex64(d);
    std::printf("stats_digest %s (%zu points)\n",
                rab::hex64(rab::fnv1a64(text)).c_str(),
                point_digests.size());
    std::printf("sim_ipc_geomean %.6f IPC\n", rab::geomean(ipcs));
    if (traced)
        m.add("sim_ipc_geomean", rab::geomean(ipcs), "IPC");
}

/** Layers only the campaign workload exercises (zero elsewhere). */
struct CampaignLayers
{
    double captureS = 0;
    double restoreS = 0;
    double imageBytes = 0;
    double coldPassS = 0;
    double warmPassS = 0;
    double pointS = 0;
    double mixPointS = 0;
    double poolBusyFrac = 0;
    double putS = 0;
    double lookupS = 0;
    double hits = 0;
    double misses = 0;
    double snapshotHits = 0;
    double manifestS = 0;
};

void
addCampaignLayers(const CampaignLayers &l, MetricSet &m)
{
    m.add("snapshot.capture_s", l.captureS, "s");
    m.add("snapshot.restore_s", l.restoreS, "s");
    m.add("snapshot.image_bytes", l.imageBytes, "bytes");
    m.add("sweep.cold_pass_s", l.coldPassS, "s");
    m.add("sweep.warm_pass_s", l.warmPassS, "s");
    m.add("sweep.point_s", l.pointS, "s");
    m.add("sweep.mix_point_s", l.mixPointS, "s");
    m.add("sweep.pool_busy_frac", l.poolBusyFrac, "ratio");
    m.add("store.put_s", l.putS, "s");
    m.add("store.lookup_s", l.lookupS, "s");
    m.add("store.hits", l.hits, "count");
    m.add("store.misses", l.misses, "count");
    m.add("store.snapshot_hits", l.snapshotHits, "count");
    m.add("report.manifest_s", l.manifestS, "s");
}

// ---------------------------------------------------------------------
// memory-bound / compute-bound: serial single-core grids
// ---------------------------------------------------------------------

std::vector<PointSpec>
singleCoreGrid(const Options &o)
{
    std::vector<std::string> workloads;
    std::vector<std::string> variants;
    std::uint64_t instructions = 200'000;
    if (o.workload == "memory-bound") {
        workloads = {"mcf", "omnetpp", "milc", "soplex", "libq"};
        variants = {"baseline", "runahead", "buffer-cc", "hybrid", "cre"};
        // Shorter points, more repeats of each within a run: see
        // FastestRepeats.
        instructions = 100'000;
    } else {
        workloads = {"calculix", "hmmer", "h264", "gcc", "perlbench"};
        variants = {"baseline", "hybrid"};
    }
    std::vector<PointSpec> grid;
    for (const std::string &w : workloads) {
        for (const std::string &v : variants) {
            PointSpec p;
            p.workload = w;
            p.variant = v;
            p.seed = o.seed;
            p.instructions = o.smoke ? 5'000 : instructions;
            p.warmup = o.smoke ? 2'000 : 25'000;
            grid.push_back(p);
        }
    }
    return grid;
}

/** One pass over @p grid, run in grid order or reversed; runs are
 *  stored in grid order either way. */
GridPass
runGridPass(const std::vector<PointSpec> &grid, bool traced,
            bool reversed = false)
{
    GridPass pass;
    pass.points = grid;
    pass.runs.resize(grid.size());
    const Clock::time_point start = Clock::now();
    for (std::size_t k = 0; k < grid.size(); ++k) {
        const std::size_t i = reversed ? grid.size() - 1 - k : k;
        pass.runs[i] =
            runPoint(grid[i], nullptr, traced ? &pass.trace : nullptr);
    }
    pass.wallS = secondsSince(start);
    return pass;
}

void
verifyPass(const GridPass &pass, const char *where, Verifier &verifier)
{
    for (std::size_t i = 0; i < pass.runs.size(); ++i) {
        const PointRun &r = pass.runs[i];
        verifier.point(pass.points[i].key(), r.ok, r.digest, r.error, where);
    }
}

void
runSingleCoreWorkload(const Options &o, Verifier &verifier, MetricSet &m)
{
    const std::vector<PointSpec> grid = singleCoreGrid(o);
    std::vector<GridPass> untraced; // All passes traced runs; else first.
    std::vector<GridPass> traced;
    FastestRepeats fastest;
    double peak_rss_mb = 0;
    repeatFor(o.seconds, o.smoke ? 1 : 3, [&](int n) {
        // After a first pass alone, untraced runs sample two host CPUs
        // at once: a second thread runs the grid in reverse order (see
        // FastestRepeats). Traced runs keep one thread, so traced and
        // untraced passes run under the same conditions and their
        // difference is the tracing overhead.
        std::future<GridPass> second;
        if (!o.trace && n > 0)
            second = std::async(std::launch::async, [&grid] {
                return runGridPass(grid, false, true);
            });
        GridPass pass = runGridPass(grid, false);
        if (n == 0)
            peak_rss_mb = peakRssMb();
        std::printf("pass %d: %.3fs wall, %llu instructions", n + 1,
                    pass.wallS, (unsigned long long)pass.instructions());
        verifyPass(pass, "untraced", verifier);
        fastest.update(pass);
        if (second.valid()) {
            const GridPass reversed = second.get();
            std::printf(", reversed %.3fs", reversed.wallS);
            verifyPass(reversed, "untraced", verifier);
            fastest.update(reversed);
        }
        if (untraced.empty() || o.trace) {
            if (!untraced.empty())
                for (PointRun &r : pass.runs)
                    r.stats.clear(); // counts come from the first pass
            untraced.push_back(std::move(pass));
        }
        if (o.trace) {
            traced.push_back(runGridPass(grid, true));
            verifyPass(traced.back(), "traced", verifier);
            std::printf(", traced pass %.3fs", traced.back().wallS);
        }
        std::printf("\n");
    });

    std::vector<double> ipcs;
    std::vector<std::uint64_t> digests;
    for (const PointRun &r : untraced.front().runs) {
        if (r.ok)
            ipcs.push_back(r.result.ipc);
        digests.push_back(r.digest);
    }
    reportOutcome(digests, ipcs, o.trace, m);
    if (!o.trace) {
        const double instructions =
            static_cast<double>(untraced.front().instructions());
        addEndToEnd(instructions / sum(fastest.total) / 1e6,
                    sum(fastest.setup), peak_rss_mb, m);
        return;
    }
    printPointSpans(traced);
    addCoreLayers(untraced, traced, m);
    addCampaignLayers(CampaignLayers{}, m);
}

// ---------------------------------------------------------------------
// campaign: runCampaign with a result store, cold then warm
// ---------------------------------------------------------------------

constexpr int kCampaignThreads = 2;

rab::CampaignSpec
campaignSpec(const Options &o)
{
    rab::CampaignSpec spec;
    spec.name = "perfbench-campaign";
    spec.workloads = {"mcf", "omnetpp", "milc", "libq", "h264"};
    for (const char *v : kVariants)
        spec.variants.push_back(rab::parseVariantLabel(v));
    spec.seeds = {o.seed};
    spec.mixes = {rab::makeMix4()};
    spec.instructions = o.smoke ? 5'000 : 20'000;
    spec.warmup = 2'000;
    spec.checkLevel = rab::CheckLevel::kOff;
    spec.snapshotWarmup = true;
    return spec;
}

/** Benchmark label ("buffer-cc") of a campaign variant label. */
std::string
cliLabel(const std::string &variant_label)
{
    for (const char *v : kVariants) {
        if (rab::parseVariantLabel(v).label == variant_label)
            return v;
    }
    return variant_label;
}

std::string
campaignKey(const rab::SweepPoint &p)
{
    return p.workload + "/" + cliLabel(p.variant) + "/"
        + std::to_string(p.seed);
}

/** One cold + warm campaign pair, with its set-up. */
struct CampaignRound
{
    /** Warmup images, built outside runCampaign: per image, the
     *  faster of two builds. */
    std::vector<double> imageS;
    double coldS = 0;  ///< ResultStore open + runCampaign, cold.
    double warmS = 0;  ///< Same, warm: every point a store read.
    double manifestS = 0; ///< campaignManifest + writeJsonFile, both.
    std::uint64_t instructions = 0; ///< Simulated on the cold pass.
    double busyS = 0;  ///< Sum of cold per-point wall times.
    /** Cold point walls in grid order: single-core points, then the
     *  mixPoints mix points (expandGrid puts mixes last). */
    std::vector<double> pointWallS;
    std::size_t mixPoints = 0;
    std::uint64_t hits = 0;         ///< Warm-pass store hits.
    std::uint64_t misses = 0;       ///< Cold-pass store misses.
    std::uint64_t snapshotHits = 0; ///< Warm-pass snapshot hits.
    double imageBytes = 0;
    std::vector<double> ipcs;                   ///< Cold, grid order.
    std::vector<std::uint64_t> digests;         ///< Cold, grid order.
};

struct ImageBuild
{
    double seconds = 0;
    std::uint64_t hash = 0; ///< snapshotContentHash of the image.
    std::size_t bytes = 0;
    std::string error;
};

/** buildWarmupImage for each of the spec's workloads, in spec order
 *  or reversed; results in spec order either way. */
std::vector<ImageBuild>
buildImages(const rab::CampaignSpec &spec, bool reversed)
{
    const std::size_t n = spec.workloads.size();
    std::vector<ImageBuild> builds(n);
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t g = reversed ? n - 1 - k : k;
        rab::SweepPoint group;
        group.workload = spec.workloads[g];
        group.seed = spec.seeds.front();
        try {
            const Clock::time_point t = Clock::now();
            const std::string image = rab::buildWarmupImage(spec, group);
            builds[g].seconds = secondsSince(t);
            builds[g].hash = rab::snapshotContentHash(image);
            builds[g].bytes = image.size();
        } catch (const std::exception &e) {
            builds[g].error = e.what();
        }
    }
    return builds;
}

CampaignRound
runCampaignRound(const rab::CampaignSpec &spec, const fs::path &dir,
                 Verifier &verifier)
{
    CampaignRound round;
    fs::remove_all(dir);
    fs::create_directories(dir);

    // Set-up: the warmup images the cold pass's WarmupImageCache
    // builds, one per (workload, seed) group, timed from outside. Two
    // threads build them at once in opposite orders, so each image's
    // fastest build samples two host CPUs (see FastestRepeats).
    std::future<std::vector<ImageBuild>> second = std::async(
        std::launch::async, [&spec] { return buildImages(spec, true); });
    const std::vector<ImageBuild> forward = buildImages(spec, false);
    const std::vector<ImageBuild> reversed = second.get();
    for (std::size_t g = 0; g < forward.size(); ++g) {
        const std::string key = "image/" + spec.workloads[g];
        for (const ImageBuild &b : {forward[g], reversed[g]}) {
            if (!b.error.empty())
                verifier.fail("setup " + key + ": " + b.error);
            else
                verifier.same(key, b.hash, "setup");
        }
        round.imageS.push_back(
            std::min(forward[g].seconds, reversed[g].seconds));
        round.imageBytes += static_cast<double>(forward[g].bytes);
    }

    const auto pass = [&](const char *name, double &pass_s) {
        Clock::time_point t = Clock::now();
        rab::ResultStore store((dir / "store").string());
        if (!store.ok())
            throw std::runtime_error("result store: " + store.error());
        rab::CampaignRunOptions options;
        options.store = &store;
        rab::CampaignResult result =
            rab::runCampaign(spec, kCampaignThreads, options);
        pass_s = secondsSince(t);
        t = Clock::now();
        const bool written = rab::writeJsonFile(
            (dir / (std::string(name) + ".json")).string(),
            rab::campaignManifest(result));
        round.manifestS += secondsSince(t);
        if (!written)
            verifier.fail(std::string(name) + " manifest write failed");
        return result;
    };
    const rab::CampaignResult cold = pass("cold", round.coldS);
    const rab::CampaignResult warm = pass("warm", round.warmS);

    for (const rab::PointResult &p : cold.points) {
        const std::uint64_t digest = statsDigest(p.stats);
        const std::uint64_t budget = spec.instructions
            * (p.point.isMix() ? p.point.mixWorkloads.size() : 1);
        const bool ok = p.ok && p.result.instructions >= budget;
        verifier.point(campaignKey(p.point), ok, digest,
                       p.ok ? "instruction budget not reached" : p.error,
                       "campaign-cold");
        round.instructions += ok ? p.result.instructions : 0;
        round.busyS += p.wallSeconds;
        round.pointWallS.push_back(p.wallSeconds);
        round.mixPoints += p.point.isMix() ? 1 : 0;
        round.ipcs.push_back(p.result.ipc);
        round.digests.push_back(digest);
    }
    for (const rab::PointResult &p : warm.points) {
        verifier.point(campaignKey(p.point), p.ok && p.cached,
                       statsDigest(p.stats),
                       p.ok ? "not served from the store" : p.error,
                       "campaign-warm");
    }
    round.hits = warm.storeHits;
    round.misses = cold.storeMisses;
    round.snapshotHits = warm.storeSnapshotHits;
    fs::remove_all(dir);
    return round;
}

/**
 * The campaign's single-core points re-run serially through public
 * calls, so their layers can be timed from outside: per (workload,
 * seed) group build, construct, runWarmup and captureSnapshot; per
 * point build, construct, restoreSnapshot(kFork), the measured region
 * and collection, then ResultStore::put; finally ResultStore::lookup
 * of every record. Payloads must equal runCampaign's for every point.
 */
GridPass
runReplicaPass(const rab::CampaignSpec &spec, bool traced,
               const fs::path &dir, Verifier &verifier)
{
    const char *where = traced ? "replica-traced" : "replica";
    GridPass pass;
    fs::remove_all(dir);
    rab::ResultStore store((dir / "store").string());
    if (!store.ok())
        throw std::runtime_error("result store: " + store.error());
    const std::string git_sha = rab::currentGitSha();

    std::map<std::string, std::string> images;
    std::vector<rab::StoreKey> keys;
    const Clock::time_point start = Clock::now();
    for (const rab::SweepPoint &sp : rab::expandGrid(spec)) {
        if (sp.isMix())
            continue;
        PointSpec p;
        p.workload = sp.workload;
        p.variant = cliLabel(sp.variant);
        p.seed = sp.seed;
        p.instructions = spec.instructions;
        p.warmup = spec.warmup;

        auto image = images.find(sp.workload);
        if (image == images.end()) {
            PointRun setup;
            Clock::time_point t = Clock::now();
            rab::Program program = rab::buildWorkload(pointParams(p));
            setup.buildS = secondsSince(t);
            t = Clock::now();
            rab::Simulation sim(warmupImageConfig(p), std::move(program));
            setup.constructS = secondsSince(t);
            t = Clock::now();
            sim.runWarmup();
            setup.warmupS = secondsSince(t);
            t = Clock::now();
            std::string payload = rab::captureSnapshot(sim);
            pass.captureS += secondsSince(t);
            verifier.same("image/" + sp.workload,
                          rab::snapshotContentHash(payload), where);
            pass.setups.push_back(setup);
            image = images.emplace(sp.workload, std::move(payload)).first;
        }

        PointRun run = runPoint(p, &image->second,
                                traced ? &pass.trace : nullptr);
        keys.push_back(rab::makeStoreKey(
            spec, sp, git_sha, rab::warmupSnapshotId(image->second)));
        if (run.ok) {
            rab::PointResult pr;
            pr.point = sp;
            pr.ok = true;
            pr.ran = true;
            pr.snapshotWarmed = true;
            pr.result = run.result;
            pr.stats = run.stats;
            const Clock::time_point t = Clock::now();
            const bool stored = store.put(keys.back(), pr);
            pass.putS += secondsSince(t);
            if (!stored)
                verifier.fail(std::string(where) + " store put failed");
        }
        pass.points.push_back(p);
        pass.runs.push_back(std::move(run));
    }
    pass.wallS = secondsSince(start);

    for (std::size_t i = 0; i < pass.runs.size(); ++i) {
        const PointRun &r = pass.runs[i];
        verifier.point(pass.points[i].key(), r.ok, r.digest, r.error,
                       where);
        if (!r.ok)
            continue;
        const Clock::time_point t = Clock::now();
        const std::optional<rab::PointResult> got = store.lookup(keys[i]);
        pass.lookupS += secondsSince(t);
        if (!got)
            verifier.fail(std::string(where) + " store lookup missed "
                          + pass.points[i].key());
        else
            verifier.same(pass.points[i].key(), statsDigest(got->stats),
                          "replica-store");
    }
    fs::remove_all(dir);
    return pass;
}

void
runCampaignWorkload(const Options &o, Verifier &verifier, MetricSet &m)
{
    const rab::CampaignSpec spec = campaignSpec(o);
    const fs::path dir = fs::path(o.workdir);
    std::vector<CampaignRound> rounds;
    std::vector<GridPass> untraced;
    std::vector<GridPass> traced;
    double peak_rss_mb = 0;
    repeatFor(o.seconds, o.smoke || o.trace ? 1 : 2, [&](int n) {
        // After a first round alone, untraced runs take two campaigns
        // at once, each with its own pool and store, so each part's
        // fastest round samples more host CPUs (see FastestRepeats).
        std::future<CampaignRound> second;
        if (!o.trace && n > 0)
            second = std::async(std::launch::async, [&] {
                return runCampaignRound(spec, dir / "second", verifier);
            });
        rounds.push_back(runCampaignRound(spec, dir / "campaign", verifier));
        if (n == 0)
            peak_rss_mb = peakRssMb();
        const CampaignRound &r = rounds.back();
        std::printf("round %d: setup %.3fs, cold %.3fs, warm %.3fs, "
                    "manifests %.3fs, %llu instructions",
                    n + 1, sum(r.imageS), r.coldS, r.warmS, r.manifestS,
                    (unsigned long long)r.instructions);
        if (second.valid()) {
            rounds.push_back(second.get());
            std::printf(", second campaign cold %.3fs", rounds.back().coldS);
        }
        if (o.trace) {
            untraced.push_back(
                runReplicaPass(spec, false, dir / "replica", verifier));
            traced.push_back(
                runReplicaPass(spec, true, dir / "replica", verifier));
            if (untraced.size() > 1)
                for (PointRun &run : untraced.back().runs)
                    run.stats.clear();
            std::printf(", replica %.3fs, traced replica %.3fs",
                        untraced.back().wallS, traced.back().wallS);
        }
        std::printf("\n");
    });

    const CampaignRound &first = rounds.front();
    reportOutcome(first.digests, first.ipcs, o.trace, m);
    const auto over_rounds = [&](const std::function<double(
                                     const CampaignRound &)> &f) {
        std::vector<double> values;
        for (const CampaignRound &r : rounds)
            values.push_back(f(r));
        return median(values);
    };
    if (!o.trace) {
        // The cold pass as its points' fastest wall times (as the pool
        // reported them) shared over the pool's threads, the warm pass
        // and the manifests at their fastest rounds, each warmup image
        // at its fastest build: the least disturbed repeats. A cold
        // pass's own wall time needs both pool threads on fast host
        // CPUs at once and spread 19-21% over ten seeds; see
        // FastestRepeats and perfbench/README.md.
        std::vector<double> point_s = first.pointWallS;
        std::vector<double> image_s = first.imageS;
        double warm = INFINITY;
        double manifests = INFINITY;
        for (const CampaignRound &r : rounds) {
            for (std::size_t i = 0; i < point_s.size(); ++i)
                point_s[i] = std::min(point_s[i], r.pointWallS[i]);
            for (std::size_t g = 0; g < image_s.size(); ++g)
                image_s[g] = std::min(image_s[g], r.imageS[g]);
            warm = std::min(warm, r.warmS);
            manifests = std::min(manifests, r.manifestS);
        }
        const double cold = sum(point_s) / kCampaignThreads;
        addEndToEnd(static_cast<double>(first.instructions)
                        / (cold + warm + manifests) / 1e6,
                    sum(image_s), peak_rss_mb, m);
        return;
    }

    std::vector<double> point_s;
    std::vector<double> mix_point_s;
    for (const CampaignRound &r : rounds) {
        const auto mixes = r.pointWallS.end()
            - static_cast<std::ptrdiff_t>(r.mixPoints);
        point_s.insert(point_s.end(), r.pointWallS.begin(), mixes);
        mix_point_s.insert(mix_point_s.end(), mixes, r.pointWallS.end());
    }
    printPointSpans(traced);
    printSpan("sweep.point", point_s);
    printSpan("sweep.mix_point", mix_point_s);
    addCoreLayers(untraced, traced, m);

    CampaignLayers l;
    l.captureS = medianOver(traced,
                            [](const GridPass &p) { return p.captureS; });
    l.restoreS = medianOver(traced, [](const GridPass &p) {
        return p.sum(&PointRun::restoreS);
    });
    l.imageBytes = first.imageBytes;
    l.coldPassS = over_rounds([](const CampaignRound &r) { return r.coldS; });
    l.warmPassS = over_rounds([](const CampaignRound &r) { return r.warmS; });
    l.pointS = median(point_s);
    l.mixPointS = median(mix_point_s);
    l.poolBusyFrac = over_rounds([](const CampaignRound &r) {
        return ratio(r.busyS, kCampaignThreads * r.coldS);
    });
    l.putS = medianOver(traced, [](const GridPass &p) { return p.putS; });
    l.lookupS =
        medianOver(traced, [](const GridPass &p) { return p.lookupS; });
    l.hits = static_cast<double>(first.hits);
    l.misses = static_cast<double>(first.misses);
    l.snapshotHits = static_cast<double>(first.snapshotHits);
    l.manifestS =
        over_rounds([](const CampaignRound &r) { return r.manifestS; });
    std::printf("base  campaign points=%zu (warm-pass hits %llu, cold-pass "
                "misses %llu, threads %d)\n",
                first.digests.size(), (unsigned long long)first.hits,
                (unsigned long long)first.misses, kCampaignThreads);
    addCampaignLayers(l, m);
}

// ---------------------------------------------------------------------
// --selfcheck
// ---------------------------------------------------------------------

/**
 * The traced tick loop must reproduce Simulation::run() exactly: same
 * cycles, same instructions, same full stat payload. Checked on one
 * traditional-runahead, one runahead-buffer and one chain-engine
 * point, each of which must also spend ticks in its runahead mode.
 */
int
selfcheck()
{
    struct Case
    {
        const char *variant;
        int mode; ///< rab::RunaheadMode the point must tick in.
    };
    int failures = 0;
    for (const Case c : {Case{"runahead", 1}, Case{"buffer-cc", 2},
                         Case{"cre", 2}}) {
        PointSpec p;
        p.workload = "mcf";
        p.variant = c.variant;
        p.instructions = 20'000;
        p.warmup = 5'000;

        rab::Simulation sim(pointConfig(p),
                            rab::buildWorkload(pointParams(p)));
        const rab::SimResult reference = sim.run();
        std::map<std::string, double> stats = sim.core().stats().collect();
        for (const auto &[name, value] : sim.memory().stats().collect())
            stats.emplace(name, value);

        TickTrace trace;
        const PointRun driven = runPoint(p, nullptr, &trace);
        const bool same = driven.ok && driven.stats == stats
            && driven.result.cycles == reference.cycles
            && driven.result.instructions == reference.instructions;
        const bool mode_seen = trace.modeTicks[c.mode] > 0;
        std::printf("selfcheck %-24s cycles %llu/%llu payload %s, %llu "
                    "%s ticks: %s\n",
                    p.key().c_str(),
                    (unsigned long long)driven.result.cycles,
                    (unsigned long long)reference.cycles,
                    driven.stats == stats ? "identical" : "DIFFERS",
                    (unsigned long long)trace.modeTicks[c.mode],
                    kModeNames[c.mode], same && mode_seen ? "ok" : "FAIL");
        failures += same && mode_seen ? 0 : 1;
    }
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    guardEnvironment();
    // Store keys and manifests record the code identity; setting it
    // here also keeps the library from spawning git to find it.
    setenv("RAB_GIT_SHA", o.gitSha.c_str(), 1);
    try {
        if (o.selfcheck)
            return selfcheck();

        std::printf("env git_sha=%s host=%s nproc=%u build_type=%s "
                    "workload=%s seed=%llu%s trace=%d seconds=%g\n",
                    o.gitSha.c_str(), rab::currentHostname().c_str(),
                    std::thread::hardware_concurrency(), RAB_PERF_BUILD_TYPE,
                    o.workload.c_str(), (unsigned long long)o.seed,
                    o.seed == 0 ? " (suite defaults)" : "", o.trace ? 1 : 0,
                    o.seconds);
        Verifier verifier;
        MetricSet metrics;
        if (o.workload == "memory-bound" || o.workload == "compute-bound")
            runSingleCoreWorkload(o, verifier, metrics);
        else if (o.workload == "campaign")
            runCampaignWorkload(o, verifier, metrics);
        else
            usage(("unknown workload " + o.workload).c_str());

        std::printf("failed_frac %.6f (%llu failed of %llu attempted "
                    "point runs)\n",
                    ratio(static_cast<double>(verifier.failed()),
                          static_cast<double>(verifier.attempted())),
                    (unsigned long long)verifier.failed(),
                    (unsigned long long)verifier.attempted());
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": %s}\n",
                    verifier.failed() == 0 ? "true" : "false",
                    (unsigned long long)verifier.attempted(),
                    (unsigned long long)verifier.failed(),
                    metrics.json().c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rabperf: %s\n", e.what());
        return 1;
    }
}
