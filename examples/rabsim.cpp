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
#include <sstream>
#include <string>
#include <vector>

#include "checker/invariant_checker.hh"
#include "common/logging.hh"
#include "common/profiler.hh"
#include "core/multi_sim.hh"
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

    /** @{ Multi-core mode (--cores / --mix / --policies). With no
     *  explicit --config, a multi-core run sweeps all six variants. */
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
usage(int code)
{
    std::fputs(
        "rabsim - runahead buffer simulator\n"
        "\n"
        "  --workload NAME     suite workload (default mcf)\n"
        "  --all               run the whole suite (single-core)\n"
        "  --config NAME       baseline | runahead | runahead-enhanced |\n"
        "                      buffer | buffer-cc | hybrid | cre |\n"
        "                      cre-hybrid\n"
        "                      (multi-core default: sweep the six\n"
        "                      paper configs)\n"
        "  --cores N           simulate N cores sharing the LLC, MSHR\n"
        "                      pool and DRAM (default 1; N > 1 and\n"
        "                      --mix reject --all, --trace-out and\n"
        "                      the --snapshot-* flags)\n"
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
        "  --mem-queue N | --llc BYTES     Table 1 overrides\n"
        "  --print-config      show the simulated system and exit\n"
        "  --list              list suite workloads and exit\n",
        code == 0 ? stdout : stderr);
    std::exit(code);
}

/** A usage error with a one-line reason (exit 2, no help text). */
[[noreturn]] void
usageError(const std::string &reason)
{
    std::fprintf(stderr, "rabsim: %s\n", reason.c_str());
    std::exit(2);
}

RunaheadConfig
parseConfig(const std::string &name)
{
    if (name == "baseline")
        return RunaheadConfig::kBaseline;
    if (name == "runahead")
        return RunaheadConfig::kRunahead;
    if (name == "runahead-enhanced")
        return RunaheadConfig::kRunaheadEnhanced;
    if (name == "buffer")
        return RunaheadConfig::kRunaheadBuffer;
    if (name == "buffer-cc")
        return RunaheadConfig::kRunaheadBufferCC;
    if (name == "hybrid")
        return RunaheadConfig::kHybrid;
    if (name == "cre")
        return RunaheadConfig::kCRE;
    if (name == "cre-hybrid")
        return RunaheadConfig::kCREHybrid;
    fatal("unknown --config '%s'", name.c_str());
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    const auto next = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(2);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload")
            opts.workload = next(i);
        else if (arg == "--all")
            opts.allWorkloads = true;
        else if (arg == "--config") {
            opts.config = parseConfig(next(i));
            opts.configSet = true;
        } else if (arg == "--cores")
            opts.cores = std::atoi(next(i));
        else if (arg == "--mix") {
            std::stringstream ss(next(i));
            std::string item;
            while (std::getline(ss, item, ',')) {
                if (!item.empty())
                    opts.mixWorkloads.push_back(item);
            }
        } else if (arg == "--policies") {
            std::stringstream ss(next(i));
            std::string item;
            while (std::getline(ss, item, ',')) {
                if (!item.empty())
                    opts.corePolicies.push_back(parseConfig(item));
            }
        } else if (arg == "--prefetch")
            opts.prefetch = true;
        else if (arg == "--instructions")
            opts.instructions = std::strtoull(next(i), nullptr, 10);
        else if (arg == "--warmup")
            opts.warmup = std::strtoull(next(i), nullptr, 10);
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
        else if (arg == "--check")
            opts.checkLevel = parseCheckLevel(next(i));
        else if (arg == "--check-policy")
            opts.checkPolicy = parseCheckPolicy(next(i));
        else if (arg == "--fault-seed") {
            opts.fault.enabled = true;
            opts.fault.seed = std::strtoull(next(i), nullptr, 10);
        } else if (arg == "--fault-rate") {
            opts.fault.enabled = true;
            opts.fault.setAllRates(std::atof(next(i)));
        } else if (arg == "--fault-chain-rate") {
            opts.fault.enabled = true;
            opts.fault.chainCacheRate = std::atof(next(i));
        } else if (arg == "--fault-buffer-rate") {
            opts.fault.enabled = true;
            opts.fault.bufferUopRate = std::atof(next(i));
        } else if (arg == "--fault-dram-drop-rate") {
            opts.fault.enabled = true;
            opts.fault.dramDropRate = std::atof(next(i));
        } else if (arg == "--fault-dram-delay-rate") {
            opts.fault.enabled = true;
            opts.fault.dramDelayRate = std::atof(next(i));
        } else if (arg == "--fault-stall-rate") {
            opts.fault.enabled = true;
            opts.fault.memStallRate = std::atof(next(i));
        } else if (arg == "--watchdog")
            opts.watchdogCycles = std::strtoull(next(i), nullptr, 10);
        else if (arg == "--no-fast-forward")
            opts.fastForward = false;
        else if (arg == "--profile")
            Profiler::setEnabled(true);
        else if (arg == "--rob")
            opts.robEntries = std::atoi(next(i));
        else if (arg == "--rs")
            opts.rsEntries = std::atoi(next(i));
        else if (arg == "--buffer")
            opts.bufferEntries = std::atoi(next(i));
        else if (arg == "--chain-cache")
            opts.chainCacheEntries = std::atoi(next(i));
        else if (arg == "--mem-queue")
            opts.memQueueEntries = std::atoi(next(i));
        else if (arg == "--llc")
            opts.llcBytes = std::strtoull(next(i), nullptr, 10);
        else if (arg == "--print-config")
            opts.printConfig = true;
        else if (arg == "--list")
            opts.listWorkloads = true;
        else if (arg == "--help" || arg == "-h")
            usage(0);
        else
            usage(2);
    }

    if (opts.cores < 1)
        usageError("--cores must be at least 1");
    if (opts.cores > 1 || !opts.mixWorkloads.empty()) {
        // The multi-core driver has no snapshot, trace or whole-suite
        // path: refuse these flags rather than silently ignore them.
        const char *flag = opts.allWorkloads ? "--all"
            : !opts.tracePath.empty()        ? "--trace-out"
            : !opts.snapshotIn.empty()       ? "--snapshot-in"
            : !opts.snapshotOut.empty()      ? "--snapshot-out"
            : opts.snapshotStrict            ? "--snapshot-strict"
                                             : nullptr;
        if (flag) {
            usageError(std::string(flag)
                       + " is single-core only (drop --cores N>1 and "
                         "--mix)");
        }
    }
    return opts;
}

SimConfig
makeSimConfig(const Options &opts)
{
    SimConfig config = makeConfig(opts.config, opts.prefetch);
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
    if (opts.bufferEntries > 0) {
        config.core.runahead.bufferEntries = opts.bufferEntries;
        config.core.runahead.chainGen.maxChainLength = opts.bufferEntries;
    }
    if (opts.chainCacheEntries > 0)
        config.core.runahead.chainCacheEntries = opts.chainCacheEntries;
    if (opts.memQueueEntries > 0)
        config.mem.memQueueEntries = opts.memQueueEntries;
    if (opts.llcBytes > 0)
        config.mem.llc.sizeBytes = opts.llcBytes;
    config.energy.robEntries = config.core.robEntries;
    return config;
}

int
runOne(const Options &opts, const std::string &workload)
{
    const SimConfig config = makeSimConfig(opts);
    const auto make_sim = [&] {
        return std::make_unique<Simulation>(
            config, buildSuiteWorkload(workload));
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
                snapshotHashHex(snapshotContentHash(payload)).c_str(),
                payload.size(), opts.snapshotOut.c_str());
        }
    }

    if (!opts.tracePath.empty())
        sim->enableTrace(opts.tracePath);

    const SimResult result = sim->runMeasured();
    std::printf("%s\n", result.toString().c_str());

    if (!opts.tracePath.empty()) {
        std::fprintf(
            stderr, "rabsim: trace %llu records -> %s\n",
            (unsigned long long)summarizeTrace(opts.tracePath).totalUops,
            opts.tracePath.c_str());
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

/** One multi-core run under one (chip-wide or per-core) policy. */
void
runMultiOnce(const Options &opts,
             const std::vector<std::string> &workloads,
             RunaheadConfig variant)
{
    Options one = opts;
    one.config = variant;
    SimConfig config = makeSimConfig(one);
    config.numCores = static_cast<int>(workloads.size());
    config.corePolicies = opts.corePolicies;

    if (opts.corePolicies.empty()) {
        std::printf("== %s x%d ==\n", runaheadConfigName(variant),
                    config.numCores);
    } else {
        std::string names;
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            if (i)
                names += '|';
            names += runaheadConfigName(
                config.corePolicy(static_cast<int>(i)));
        }
        std::printf("== %s ==\n", names.c_str());
    }

    const MultiSimResult result = simulateMix(config, workloads);
    std::printf("%s\n", result.toString().c_str());

    if (config.numCores > 1) {
        const auto stat = [&](const std::string &name) {
            const auto it = result.stats.find(name);
            return it == result.stats.end() ? 0.0 : it->second;
        };
        std::printf("  shared: cross_core_evictions=%.0f\n",
                    stat("shared.cross_core_evictions"));
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            const std::string p =
                "core" + std::to_string(i) + ".mem.";
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

    if (opts.dumpStats) {
        for (const auto &[name, value] : result.stats)
            std::printf("%-48s %.0f\n", name.c_str(), value);
    }
    if (opts.dumpJson) {
        std::printf("{\n");
        bool first = true;
        for (const auto &[name, value] : result.stats) {
            std::printf("%s  \"%s\": %.17g", first ? "" : ",\n",
                        name.c_str(), value);
            first = false;
        }
        std::printf("\n}\n");
    }
}

int
runMulti(const Options &opts)
{
    std::vector<std::string> workloads = opts.mixWorkloads;
    if (workloads.empty())
        workloads.assign(static_cast<std::size_t>(opts.cores),
                         opts.workload);
    else if (opts.cores > static_cast<int>(workloads.size())) {
        // --cores larger than the mix: cycle the mix entries.
        std::vector<std::string> cycled;
        for (int i = 0; i < opts.cores; ++i)
            cycled.push_back(
                workloads[static_cast<std::size_t>(i)
                          % workloads.size()]);
        workloads = std::move(cycled);
    }
    for (const std::string &name : workloads) {
        if (!findWorkload(name))
            fatal("unknown workload '%s' (try --list)", name.c_str());
    }

    // Explicit --config (or --policies) pins the run; otherwise a
    // multi-core invocation sweeps all six variants chip-wide.
    std::vector<RunaheadConfig> variants;
    if (opts.configSet || !opts.corePolicies.empty()) {
        variants = {opts.config};
    } else {
        variants = {RunaheadConfig::kBaseline,
                    RunaheadConfig::kRunahead,
                    RunaheadConfig::kRunaheadEnhanced,
                    RunaheadConfig::kRunaheadBuffer,
                    RunaheadConfig::kRunaheadBufferCC,
                    RunaheadConfig::kHybrid};
    }
    for (const RunaheadConfig variant : variants)
        runMultiOnce(opts, workloads, variant);
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
        std::fputs(makeSimConfig(opts).table1String().c_str(), stdout);
        return 0;
    }

    try {
        if (opts.cores > 1 || !opts.mixWorkloads.empty())
            return runMulti(opts);
        if (opts.allWorkloads) {
            for (const WorkloadSpec &spec : spec06Suite())
                runOne(opts, spec.params.name);
            return 0;
        }
        if (!findWorkload(opts.workload)) {
            fatal("unknown workload '%s' (try --list)",
                  opts.workload.c_str());
        }
        return runOne(opts, opts.workload);
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
