/**
 * @file
 * rabsim — the full-featured command-line simulator driver.
 *
 * Runs any suite workload (or all of them) under any runahead
 * configuration, with Table 1 parameters overridable from the command
 * line, and dumps results as a summary line, a full statistics table,
 * or JSON.
 *
 *   rabsim --workload mcf --config hybrid --prefetch \
 *          --instructions 200000 --warmup 50000 --stats
 *   rabsim --list
 *   rabsim --workload libq --config buffer-cc --json > libq.json
 *   rabsim --workload mcf --rob 256 --buffer 64 --mem-queue 128
 *   rabsim --workload mcf --config hybrid --fault-rate 0.01 \
 *          --check cheap --check-policy degrade
 *   rabsim --workload mcf --warmup 50000 --snapshot-out warm.rabsnap
 *   rabsim --workload mcf --warmup 50000 --snapshot-in warm.rabsnap
 *
 * Exit codes: 0 success, 2 usage error, 3 watchdog gave up (forward
 * progress lost), 4 invariant violation escaped (checker in throw
 * policy), 8 snapshot load failed under --snapshot-strict.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checker/invariant_checker.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/number.hh"
#include "common/profiler.hh"
#include "core/simulation.hh"
#include "fault/watchdog.hh"
#include "snapshot/snapshot.hh"
#include "trace/trace.hh"
#include "workloads/suite.hh"

using namespace rab;

namespace
{

struct Options
{
    std::string workload = "mcf";
    bool allWorkloads = false;
    RunaheadConfig config = RunaheadConfig::kBaseline;
    bool configSet = false;
    bool prefetch = false;

    /** @{ Core count (--cores / --mix / --policies). With more than
     *  one core and no explicit --config, a run sweeps all six
     *  variants. */
    int cores = 1;
    std::vector<std::string> mixWorkloads;
    std::vector<RunaheadConfig> corePolicies;
    /** @} */
    std::uint64_t instructions = 100'000;
    std::uint64_t warmup = 25'000;
    bool dumpStats = false;
    bool dumpJson = false;
    bool listWorkloads = false;
    bool printConfig = false;
    std::string tracePath;
    std::string snapshotOut;
    std::string snapshotIn;
    bool snapshotStrict = false;
    CheckLevel checkLevel = CheckLevel::kOff;
    CheckPolicy checkPolicy = CheckPolicy::kThrow;
    FaultConfig fault{};
    std::uint64_t watchdogCycles = 0;
    bool fastForward = true;

    // Table 1 overrides.
    int robEntries = 0;
    int rsEntries = 0;
    int bufferEntries = 0;
    int chainCacheEntries = 0;
    int memQueueEntries = 0;
    std::uint64_t llcBytes = 0;
};

[[noreturn]] void
usage()
{
    std::fputs(
        "rabsim - runahead buffer simulator\n"
        "\n"
        "  --workload NAME     suite workload (default mcf)\n"
        "  --all               run the whole suite (single-core)\n"
        "  --config NAME       ",
        stdout);
    std::fputs(runaheadConfigCliList(22, 64).c_str(), stdout);
    std::fputs(
        "                      (multi-core default: sweep the six\n"
        "                      paper configs)\n"
        "  --cores N           simulate N >= 1 cores sharing the LLC,\n"
        "                      MSHR pool and DRAM (default 1; more\n"
        "                      than one core rejects --all, --trace-out\n"
        "                      and the --snapshot-* flags)\n"
        "  --mix A,B,...       one workload per core (implies --cores\n"
        "                      when unset; --workload replicated\n"
        "                      otherwise)\n"
        "  --policies A,B,...  per-core runahead policy (core i runs\n"
        "                      entry i mod size; overrides --config)\n"
        "  --prefetch          enable the Table 1 stream prefetcher\n"
        "  --instructions N    measured instructions (default 100000)\n"
        "  --warmup N          warmup instructions (default 25000)\n"
        "  --stats             dump the full statistics table\n"
        "  --json              dump statistics as JSON\n"
        "  --trace-out FILE    capture a retirement trace of the\n"
        "                      measured region (.rabt; --trace is an\n"
        "                      alias)\n"
        "  --snapshot-out FILE write a whole-simulator snapshot at the\n"
        "                      warmup boundary, then run as usual\n"
        "  --snapshot-in FILE  restore the warmup snapshot instead of\n"
        "                      re-running warmup (same --workload,\n"
        "                      --warmup and config flags required)\n"
        "  --snapshot-strict   exit 8 when the snapshot cannot be\n"
        "                      loaded, instead of falling back to a\n"
        "                      straight-line warmup\n"
        "  --check LEVEL       invariant checking: off | cheap | full\n"
        "                      (RAB_CHECK_LEVEL overrides)\n"
        "  --check-policy P    violation handling: throw | degrade\n"
        "                      (RAB_CHECK_POLICY overrides)\n"
        "  --fault-seed N      fault-injection RNG seed (default 1)\n"
        "  --fault-rate P      enable injection, set every rate to P\n"
        "                      (every rate P is in [0, 1])\n"
        "  --fault-chain-rate P       chain-cache corruption rate\n"
        "  --fault-buffer-rate P      runahead-buffer uop flip rate\n"
        "  --fault-dram-drop-rate P   DRAM response drop rate\n"
        "  --fault-dram-delay-rate P  DRAM response delay rate\n"
        "  --fault-stall-rate P       memory-queue stall-window rate\n"
        "  --watchdog N        forward-progress watchdog bound in\n"
        "                      cycles (default: auto when faults on)\n"
        "  --no-fast-forward   tick every cycle instead of skipping\n"
        "                      quiescent stall windows (debugging)\n"
        "  --profile           per-stage wall-time profile at exit\n"
        "                      (RAB_PROFILE=1 equivalent)\n"
        "  --rob N | --rs N | --buffer N | --chain-cache N |\n"
        "  --mem-queue N | --llc BYTES     Table 1 overrides (>= 1)\n"
        "  --print-config      show the simulated system and exit\n"
        "  --list              list suite workloads and exit\n",
        stdout);
    std::exit(0);
}

/** A usage error with a one-line reason (exit 2, no help text). */
[[noreturn]] void
usageError(const std::string &reason)
{
    std::fprintf(stderr, "rabsim: %s\n", reason.c_str());
    std::exit(2);
}

RunaheadConfig
parseConfig(const char *flag, const std::string &name)
{
    // Plain names only: --prefetch and --policies cover rabsweep's
    // "+pf" suffix and '|' labels.
    if (const auto config = parseRunaheadConfig(name))
        return *config;
    usageError(strprintf("unknown %s '%s' (try --help)", flag, name.c_str()));
}

constexpr CheckLevel kCheckLevels[] = {CheckLevel::kOff, CheckLevel::kCheap,
                                       CheckLevel::kFull};
constexpr CheckPolicy kCheckPolicies[] = {CheckPolicy::kThrow,
                                          CheckPolicy::kDegrade};

/** The value of @p options whose @p name_of text is @p text. */
template <class T, std::size_t N, class NameOf>
T
parseChoice(const char *flag, const std::string &text, const T (&options)[N],
            NameOf name_of)
{
    for (const T option : options) {
        if (text == name_of(option))
            return option;
    }
    usageError(strprintf("unknown %s '%s' (try --help)", flag, text.c_str()));
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
    const auto number = [&](int &i, auto lo, auto hi) {
        const char *flag = argv[i];
        const char *text = next(i);
        const auto value = parseNumber(text, lo, hi);
        if (!value) {
            usageError(strprintf("%s expects %s, got '%s'", flag,
                                 numberRangeText(lo, hi).c_str(), text));
        }
        return *value;
    };
    const auto list = [&](int &i) {
        std::vector<std::string> items;
        std::stringstream ss(next(i));
        std::string item;
        while (std::getline(ss, item, ',')) {
            if (!item.empty())
                items.push_back(item);
        }
        return items;
    };
    constexpr std::uint64_t kU64Max =
        std::numeric_limits<std::uint64_t>::max();
    constexpr int kIntMax = std::numeric_limits<int>::max();
    const auto rate = [&](int &i) { return number(i, 0.0, 1.0); };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload")
            opts.workload = next(i);
        else if (arg == "--all")
            opts.allWorkloads = true;
        else if (arg == "--config") {
            opts.config = parseConfig("--config", next(i));
            opts.configSet = true;
        } else if (arg == "--cores")
            opts.cores = number(i, 1, kIntMax);
        else if (arg == "--mix")
            opts.mixWorkloads = list(i);
        else if (arg == "--policies") {
            for (const std::string &item : list(i))
                opts.corePolicies.push_back(parseConfig("--policies", item));
        } else if (arg == "--prefetch")
            opts.prefetch = true;
        else if (arg == "--instructions")
            opts.instructions = number(i, std::uint64_t{0}, kU64Max);
        else if (arg == "--warmup")
            opts.warmup = number(i, std::uint64_t{0}, kU64Max);
        else if (arg == "--stats")
            opts.dumpStats = true;
        else if (arg == "--json")
            opts.dumpJson = true;
        else if (arg == "--trace" || arg == "--trace-out")
            opts.tracePath = next(i);
        else if (arg == "--snapshot-out")
            opts.snapshotOut = next(i);
        else if (arg == "--snapshot-in")
            opts.snapshotIn = next(i);
        else if (arg == "--snapshot-strict")
            opts.snapshotStrict = true;
        else if (arg == "--check") {
            opts.checkLevel = parseChoice("--check", next(i), kCheckLevels,
                                          checkLevelName);
        } else if (arg == "--check-policy") {
            opts.checkPolicy = parseChoice("--check-policy", next(i),
                                           kCheckPolicies, checkPolicyName);
        } else if (arg == "--fault-seed") {
            opts.fault.enabled = true;
            opts.fault.seed = number(i, std::uint64_t{0}, kU64Max);
        } else if (arg == "--fault-rate") {
            opts.fault.enabled = true;
            opts.fault.setAllRates(rate(i));
        } else if (arg == "--fault-chain-rate") {
            opts.fault.enabled = true;
            opts.fault.chainCacheRate = rate(i);
        } else if (arg == "--fault-buffer-rate") {
            opts.fault.enabled = true;
            opts.fault.bufferUopRate = rate(i);
        } else if (arg == "--fault-dram-drop-rate") {
            opts.fault.enabled = true;
            opts.fault.dramDropRate = rate(i);
        } else if (arg == "--fault-dram-delay-rate") {
            opts.fault.enabled = true;
            opts.fault.dramDelayRate = rate(i);
        } else if (arg == "--fault-stall-rate") {
            opts.fault.enabled = true;
            opts.fault.memStallRate = rate(i);
        } else if (arg == "--watchdog")
            opts.watchdogCycles = number(i, std::uint64_t{0}, kU64Max);
        else if (arg == "--no-fast-forward")
            opts.fastForward = false;
        else if (arg == "--profile")
            Profiler::setEnabled(true);
        else if (arg == "--rob")
            opts.robEntries = number(i, 1, kIntMax);
        else if (arg == "--rs")
            opts.rsEntries = number(i, 1, kIntMax);
        else if (arg == "--buffer")
            opts.bufferEntries = number(i, 1, kIntMax);
        else if (arg == "--chain-cache")
            opts.chainCacheEntries = number(i, 1, kIntMax);
        else if (arg == "--mem-queue")
            opts.memQueueEntries = number(i, 1, kIntMax);
        else if (arg == "--llc")
            opts.llcBytes = number(i, std::uint64_t{1}, kU64Max);
        else if (arg == "--print-config")
            opts.printConfig = true;
        else if (arg == "--list")
            opts.listWorkloads = true;
        else if (arg == "--help" || arg == "-h")
            usage();
        else
            usageError("unknown flag '" + arg + "' (try --help)");
    }
    return opts;
}

/** Each run's workloads, one per core: every suite workload alone
 *  under --all; otherwise --mix or --workload, with --cores beyond
 *  the list cycling its entries. */
std::vector<std::vector<std::string>>
resolveRuns(const Options &opts)
{
    if (opts.allWorkloads) {
        if (opts.cores > 1 || !opts.mixWorkloads.empty())
            usageError("--all runs each suite workload on one core "
                       "(drop --cores N>1 and --mix)");
        std::vector<std::vector<std::string>> runs;
        runs.reserve(spec06Suite().size());
        for (const WorkloadSpec &spec : spec06Suite())
            runs.push_back({spec.params.name});
        return runs;
    }

    const char *flag = opts.mixWorkloads.empty() ? "--workload" : "--mix";
    std::vector<std::string> workloads = opts.mixWorkloads;
    if (workloads.empty())
        workloads.push_back(opts.workload);
    for (const std::string &name : workloads) {
        if (!findWorkload(name)) {
            usageError(strprintf("%s: unknown workload '%s' (try --list)",
                                 flag, name.c_str()));
        }
    }
    for (std::size_t i = workloads.size();
         i < static_cast<std::size_t>(opts.cores); ++i)
        workloads.push_back(workloads[i % workloads.size()]);

    // A trace or a snapshot holds one core's state.
    if (workloads.size() > 1) {
        const char *single = !opts.tracePath.empty() ? "--trace-out"
            : !opts.snapshotIn.empty()               ? "--snapshot-in"
            : !opts.snapshotOut.empty()              ? "--snapshot-out"
            : opts.snapshotStrict                    ? "--snapshot-strict"
                                                     : nullptr;
        if (single) {
            usageError(std::string(single)
                       + " needs one core (drop --cores N>1 and "
                         "--mix)");
        }
    }
    return {workloads};
}

SimConfig
makeSimConfig(const Options &opts, RunaheadConfig variant, int cores)
{
    // Per-core policies name core 0's as the headline config, as a
    // sweep's '|'-joined labels do.
    SimConfig config = makeConfig(
        opts.corePolicies.empty() ? variant : opts.corePolicies.front(),
        opts.prefetch);
    config.numCores = cores;
    config.corePolicies = opts.corePolicies;
    config.instructions = opts.instructions;
    config.warmupInstructions = opts.warmup;
    config.checkLevel = opts.checkLevel;
    config.core.checkLevel = opts.checkLevel;
    config.checkPolicy = opts.checkPolicy;
    config.fault = opts.fault;
    config.fastForward = opts.fastForward;
    if (opts.watchdogCycles > 0)
        config.core.watchdog.cycles = opts.watchdogCycles;
    config.finalize();
    if (opts.robEntries > 0)
        config.core.robEntries = opts.robEntries;
    if (opts.rsEntries > 0)
        config.core.rsEntries = opts.rsEntries;
    if (opts.bufferEntries > 0)
        config.core.runahead.chainGen.maxChainLength = opts.bufferEntries;
    if (opts.chainCacheEntries > 0)
        config.core.runahead.chainCacheEntries = opts.chainCacheEntries;
    if (opts.memQueueEntries > 0)
        config.mem.memQueueEntries = opts.memQueueEntries;
    if (opts.llcBytes > 0)
        config.mem.llc.sizeBytes = opts.llcBytes;
    return config;
}

/** Print a multi-core run: per-core results, chip totals and the
 *  contention counters the interference experiment reads. */
void
printChip(const Simulation &sim, const SimResult &chip)
{
    const std::vector<SimResult> &cores = sim.coreResults();
    for (std::size_t i = 0; i < cores.size(); ++i)
        std::printf("core%zu %s\n", i, cores[i].toString().c_str());
    std::printf("total: %llu instrs, %llu cycles, throughput %.3f "
                "uops/cycle\n",
                (unsigned long long)chip.instructions,
                (unsigned long long)chip.cycles, chip.ipc);

    const std::map<std::string, double> &stats = sim.statPayload();
    const auto stat = [&](const std::string &name) {
        const auto it = stats.find(name);
        return it == stats.end() ? 0.0 : it->second;
    };
    std::printf("  shared: cross_core_evictions=%.0f\n",
                stat("shared.cross_core_evictions"));
    for (std::size_t i = 0; i < cores.size(); ++i) {
        const std::string p = "core" + std::to_string(i) + ".mem.";
        std::printf("  core%zu contention: bank_conflicts=%.0f "
                    "wait_cycles=%.0f evicted_by_others=%.0f "
                    "mshr_peers_held=%.0f rejects_contended=%.0f\n",
                    i, stat(p + "bank_conflicts"),
                    stat(p + "bank_conflict_wait_cycles"),
                    stat(p + "llc_evicted_by_others"),
                    stat(p + "shared_mshr_peers_held"),
                    stat(p + "queue_rejects_contended"));
    }
}

/** One run of @p workloads (one per core) under @p variant. */
int
runOnce(const Options &opts, const std::vector<std::string> &workloads,
        RunaheadConfig variant)
{
    const SimConfig config =
        makeSimConfig(opts, variant, static_cast<int>(workloads.size()));
    const bool multi = config.numCores > 1;
    if (multi && opts.corePolicies.empty()) {
        std::printf("== %s x%d ==\n", runaheadConfigName(variant),
                    config.numCores);
    } else if (multi) {
        std::string names;
        for (int i = 0; i < config.numCores; ++i) {
            if (i)
                names += '|';
            names += runaheadConfigName(config.corePolicy(i));
        }
        std::printf("== %s ==\n", names.c_str());
    }

    const auto make_sim = [&] {
        std::vector<Program> programs;
        programs.reserve(workloads.size());
        for (const std::string &name : workloads)
            programs.push_back(buildSuiteWorkload(name));
        return std::make_unique<Simulation>(config, std::move(programs));
    };
    std::unique_ptr<Simulation> sim = make_sim();

    // Warmup: restored from a snapshot, or run straight-line (and
    // optionally captured). Snapshot diagnostics go to stderr so
    // stdout stays byte-comparable between snapshot and cold runs.
    bool restored = false;
    if (!opts.snapshotIn.empty()) {
        try {
            const std::string payload =
                readSnapshotFile(opts.snapshotIn);
            restoreSnapshot(*sim, payload,
                            SnapshotRestoreMode::kExact);
            restored = true;
        } catch (const SnapshotError &e) {
            if (opts.snapshotStrict) {
                std::fprintf(stderr, "rabsim: %s\n", e.what());
                return 8;
            }
            std::fprintf(stderr,
                         "rabsim: %s; falling back to straight-line "
                         "warmup\n",
                         e.what());
            sim = make_sim(); // A failed restore taints the state.
        }
    }
    if (!restored) {
        sim->runWarmup();
        if (!opts.snapshotOut.empty()) {
            const std::string payload = captureSnapshot(*sim);
            writeSnapshotFile(opts.snapshotOut, payload);
            std::fprintf(
                stderr, "rabsim: snapshot %s (%zu bytes) -> %s\n",
                hex64(snapshotContentHash(payload)).c_str(),
                payload.size(), opts.snapshotOut.c_str());
        }
    }

    if (!opts.tracePath.empty())
        sim->enableTrace(opts.tracePath);

    const SimResult result = sim->runMeasured();
    if (multi)
        printChip(*sim, result);
    else
        std::printf("%s\n", result.toString().c_str());

    if (!opts.tracePath.empty()) {
        std::fprintf(
            stderr, "rabsim: trace %llu records -> %s\n",
            (unsigned long long)summarizeTrace(opts.tracePath).totalUops,
            opts.tracePath.c_str());
    }
    if (multi) {
        // The chip payload: each core's groups under core<i>, plus the
        // chip-wide shared.* subtree.
        if (opts.dumpStats) {
            for (const auto &[name, value] : sim->statPayload())
                std::printf("%-48s %.0f\n", name.c_str(), value);
        }
        if (opts.dumpJson) {
            std::printf("{\n");
            bool first = true;
            for (const auto &[name, value] : sim->statPayload()) {
                std::printf("%s  \"%s\": %.17g", first ? "" : ",\n",
                            name.c_str(), value);
                first = false;
            }
            std::printf("\n}\n");
        }
        return 0;
    }
    if (opts.dumpStats) {
        sim->core().stats().dump(std::cout);
        sim->memory().stats().dump(std::cout);
        if (sim->faults())
            sim->faults()->stats().dump(std::cout);
    }
    if (opts.dumpJson) {
        sim->core().stats().dumpJson(std::cout);
        sim->memory().stats().dumpJson(std::cout);
        if (sim->faults())
            sim->faults()->stats().dumpJson(std::cout);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const Options opts = parseArgs(argc, argv);

    if (opts.listWorkloads) {
        for (const WorkloadSpec &spec : spec06Suite()) {
            std::printf("%-12s %s\n", spec.params.name.c_str(),
                        intensityName(spec.intensity));
        }
        return 0;
    }
    if (opts.printConfig) {
        std::fputs(makeSimConfig(opts, opts.config, 1).table1String().c_str(),
                   stdout);
        return 0;
    }

    const std::vector<std::vector<std::string>> runs = resolveRuns(opts);
    try {
        for (const std::vector<std::string> &workloads : runs) {
            // Explicit --config (or --policies) pins the run; otherwise
            // a multi-core invocation sweeps all six variants.
            std::vector<RunaheadConfig> variants = {opts.config};
            if (workloads.size() > 1 && !opts.configSet
                && opts.corePolicies.empty()) {
                variants = {RunaheadConfig::kBaseline,
                            RunaheadConfig::kRunahead,
                            RunaheadConfig::kRunaheadEnhanced,
                            RunaheadConfig::kRunaheadBuffer,
                            RunaheadConfig::kRunaheadBufferCC,
                            RunaheadConfig::kHybrid};
            }
            for (const RunaheadConfig variant : variants) {
                const int code = runOnce(opts, workloads, variant);
                if (code != 0)
                    return code;
            }
        }
        return 0;
    } catch (const WatchdogTimeout &e) {
        // Forward progress could not be restored within the recovery
        // budget: one-line diagnosis, distinct exit code.
        std::fprintf(stderr,
                     "rabsim: watchdog gave up at cycle %llu after %d "
                     "recoveries: forward progress lost (likely an "
                     "unrecoverable injected fault)\n",
                     (unsigned long long)e.cycle(), e.recoveries());
        return 3;
    } catch (const InvariantViolation &e) {
        std::fprintf(stderr,
                     "rabsim: invariant violation in module '%s': %s\n",
                     e.module().c_str(), e.what());
        return 4;
    }
}
