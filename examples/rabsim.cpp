/**
 * @file
 * rabsim — the full-featured command-line simulator driver.
 *
 * Runs one simulation of a suite workload (or a multi-core mix) under
 * one runahead configuration, with Table 1 parameters overridable from
 * the command line, and prints its result as a summary line, plus the
 * full statistics table, or as one JSON document. Grids of workloads x
 * configs are rabsweep's job.
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
 * policy), 8 snapshot could not be loaded.
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "checker/invariant_checker.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/number.hh"
#include "core/simulation.hh"
#include "fault/watchdog.hh"
#include "snapshot/snapshot.hh"
#include "stats/json.hh"
#include "sweep/report.hh"
#include "trace/trace.hh"
#include "workloads/suite.hh"

using namespace rab;

namespace
{

struct Options
{
    std::string workload = "mcf";
    RunaheadConfig config = RunaheadConfig::kBaseline;
    bool prefetch = false;

    /** @{ Core count (--cores / --mix / --policies). */
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
        "  --config NAME       ",
        stdout);
    std::fputs(runaheadConfigCliList(22, 64).c_str(), stdout);
    std::fputs(
        "                      (default baseline)\n"
        "  --cores N           simulate N >= 1 cores sharing the LLC,\n"
        "                      MSHR pool and DRAM (default 1; more\n"
        "                      than one core rejects --trace-out and\n"
        "                      the --snapshot-* flags)\n"
        "  --mix A,B,...       one workload per core (implies --cores\n"
        "                      when unset; --workload replicated\n"
        "                      otherwise)\n"
        "  --policies A,B,...  per-core runahead policy (core i runs\n"
        "                      entry i mod size; overrides --config)\n"
        "  --prefetch          enable the Table 1 stream prefetcher\n"
        "  --instructions N    measured instructions (default 100000)\n"
        "  --warmup N          warmup instructions (default 25000)\n"
        "  --stats             print the full statistics table\n"
        "  --json              print metrics and statistics as one\n"
        "                      JSON document instead\n"
        "  --trace-out FILE    capture a retirement trace of the\n"
        "                      measured region (.rabt; --trace is an\n"
        "                      alias)\n"
        "  --snapshot-out FILE write a whole-simulator snapshot at the\n"
        "                      warmup boundary, then run as usual\n"
        "  --snapshot-in FILE  restore the warmup snapshot instead of\n"
        "                      re-running warmup (same --workload,\n"
        "                      --warmup and config flags required;\n"
        "                      exit 8 when it cannot be loaded)\n"
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
        else if (arg == "--config")
            opts.config = parseConfig("--config", next(i));
        else if (arg == "--cores")
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

/** The run's workloads, one per core: --mix or --workload, with
 *  --cores beyond the list cycling its entries. */
std::vector<std::string>
resolveWorkloads(const Options &opts)
{
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
                                                     : nullptr;
        if (single) {
            usageError(std::string(single)
                       + " needs one core (drop --cores N>1 and "
                         "--mix)");
        }
    }
    return workloads;
}

SimConfig
makeSimConfig(const Options &opts, int cores)
{
    // Per-core policies name core 0's as the headline config, as a
    // sweep's '|'-joined labels do.
    SimConfig config = makeConfig(
        opts.corePolicies.empty() ? opts.config : opts.corePolicies.front(),
        opts.prefetch);
    config.numCores = cores;
    config.corePolicies = opts.corePolicies;
    config.instructions = opts.instructions;
    config.warmupInstructions = opts.warmup;
    config.checkLevel = opts.checkLevel;
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

/** Print @p sim's measured region, whose result is @p result: the
 *  summary, then (--stats) one aligned "name value" row per stat of
 *  statPayload(), or (--json) instead one document holding the metrics
 *  and stats a manifest point carries. Stat values print exactly, in
 *  shortest round-trip form. */
void
printResult(const Options &opts, const Simulation &sim,
            const SimResult &result)
{
    const std::map<std::string, double> &stats = sim.statPayload();
    if (opts.dumpJson) {
        Json document = Json::object();
        document["metrics"] = simResultJson(result);
        document["stats"] = statsJson(stats);
        document.write(std::cout);
        return;
    }
    // A chip's summary is each core's line plus its totals: the chip
    // view sums instructions, cycles and energy but leaves per-core
    // ratios such as MPKI at zero.
    const std::vector<SimResult> &cores = sim.coreResults();
    if (cores.size() == 1) {
        std::printf("%s\n", result.toString().c_str());
    } else {
        for (std::size_t i = 0; i < cores.size(); ++i)
            std::printf("core%zu %s\n", i, cores[i].toString().c_str());
        std::printf("total: %llu instrs, %llu cycles, throughput %.3f "
                    "uops/cycle\n",
                    (unsigned long long)result.instructions,
                    (unsigned long long)result.cycles, result.ipc);
    }
    if (!opts.dumpStats)
        return;
    for (const auto &[name, value] : stats) {
        char text[64];
        const char *end = std::to_chars(text, text + sizeof(text), value).ptr;
        std::printf("%-52s %16.*s\n", name.c_str(),
                    static_cast<int>(end - text), text);
    }
}

/** Run one simulation of @p workloads (one per core). */
int
runOnce(const Options &opts, const std::vector<std::string> &workloads)
{
    std::vector<Program> programs;
    programs.reserve(workloads.size());
    for (const std::string &name : workloads)
        programs.push_back(buildSuiteWorkload(name));
    Simulation sim(makeSimConfig(opts, static_cast<int>(workloads.size())),
                   std::move(programs));

    // Warmup: restored from a snapshot, or run straight-line (and
    // optionally captured). Snapshot diagnostics go to stderr so
    // stdout stays byte-comparable between snapshot and cold runs.
    if (!opts.snapshotIn.empty()) {
        try {
            restoreSnapshot(sim, readSnapshotFile(opts.snapshotIn),
                            SnapshotRestoreMode::kExact);
        } catch (const SnapshotError &e) {
            std::fprintf(stderr, "rabsim: %s\n", e.what());
            return 8;
        }
    } else {
        sim.runWarmup();
        if (!opts.snapshotOut.empty()) {
            const std::string payload = captureSnapshot(sim);
            writeSnapshotFile(opts.snapshotOut, payload);
            std::fprintf(
                stderr, "rabsim: snapshot %s (%zu bytes) -> %s\n",
                hex64(snapshotContentHash(payload)).c_str(),
                payload.size(), opts.snapshotOut.c_str());
        }
    }

    if (!opts.tracePath.empty())
        sim.enableTrace(opts.tracePath);
    const SimResult result = sim.runMeasured();
    if (!opts.tracePath.empty()) {
        std::fprintf(
            stderr, "rabsim: trace %llu records -> %s\n",
            (unsigned long long)summarizeTrace(opts.tracePath).totalUops,
            opts.tracePath.c_str());
    }
    printResult(opts, sim, result);
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
        std::fputs(makeSimConfig(opts, 1).table1String().c_str(), stdout);
        return 0;
    }

    const std::vector<std::string> workloads = resolveWorkloads(opts);
    try {
        return runOnce(opts, workloads);
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
