#include "driver.hh"

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

#include "snapshot/snapshot.hh"
#include "sweep/campaign.hh"
#include "sweep/store/store_key.hh"
#include "workloads/suite.hh"

namespace perfbench
{

void
TickTrace::merge(const TickTrace &other)
{
    for (int m = 0; m < kModes; ++m) {
        tickNs[m].merge(other.tickNs[m]);
        modeSeconds[m] += other.modeSeconds[m];
        modeTicks[m] += other.modeTicks[m];
    }
    ffSeconds += other.ffSeconds;
}

void
drivenRun(rab::Core &core, std::uint64_t max_instructions,
          std::uint64_t max_cycles, TickTrace &trace)
{
    // Mirrors Core::run line for line; only the clock reads are new.
    const std::uint64_t target = core.retired() + max_instructions;
    const rab::Cycle cycle_limit = core.cycle() + max_cycles;
    while (core.retired() < target && core.cycle() < cycle_limit) {
        const auto mode = static_cast<int>(core.runahead().mode());
        const Clock::time_point t0 = Clock::now();
        core.tick();
        const Clock::time_point t1 = Clock::now();
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        trace.tickNs[mode].add(ns);
        trace.modeSeconds[mode] += static_cast<double>(ns) * 1e-9;
        ++trace.modeTicks[mode];

        if (!core.fastForwardEligible())
            continue;
        rab::Cycle horizon = core.proposeFastForward();
        if (horizon > cycle_limit)
            horizon = cycle_limit;
        if (horizon > core.cycle() + 1)
            core.applyFastForward(horizon);
        trace.ffSeconds += secondsSince(t1);
    }
}

std::string
PointSpec::key() const
{
    return workload + "/" + variant + "/" + std::to_string(seed);
}

namespace
{

rab::SimConfig
budgetedConfig(rab::RunaheadConfig runahead, const PointSpec &point)
{
    rab::SimConfig config = rab::makeConfig(runahead, false);
    config.instructions = point.instructions;
    config.warmupInstructions = point.warmup;
    config.checkLevel = rab::CheckLevel::kOff;
    config.finalize();
    return config;
}

} // namespace

rab::SimConfig
pointConfig(const PointSpec &point)
{
    return budgetedConfig(rab::parseVariantLabel(point.variant).runahead,
                          point);
}

rab::SimConfig
warmupImageConfig(const PointSpec &point)
{
    return budgetedConfig(rab::RunaheadConfig::kBaseline, point);
}

rab::WorkloadParams
pointParams(const PointSpec &point)
{
    const rab::WorkloadSpec *spec = rab::findWorkload(point.workload);
    if (!spec)
        throw std::runtime_error("unknown workload '" + point.workload
                                 + "'");
    rab::WorkloadParams params = spec->params;
    if (point.seed != 0)
        params.seed = point.seed;
    return params;
}

PointRun
runPoint(const PointSpec &point, const std::string *warmup_image,
         TickTrace *trace)
{
    PointRun run;
    try {
        const rab::SimConfig config = pointConfig(point);
        const rab::WorkloadParams params = pointParams(point);

        Clock::time_point t = Clock::now();
        rab::Program program = rab::buildWorkload(params);
        run.buildS = secondsSince(t);

        t = Clock::now();
        rab::Simulation sim(config, std::move(program));
        run.constructS = secondsSince(t);

        t = Clock::now();
        if (warmup_image) {
            rab::restoreSnapshot(sim, *warmup_image,
                                 rab::SnapshotRestoreMode::kFork);
            run.restoreS = secondsSince(t);
        } else {
            sim.runWarmup();
            run.warmupS = secondsSince(t);
        }

        t = Clock::now();
        if (trace) {
            rab::Core &core = sim.core();
            const rab::Cycle start = core.cycle();
            drivenRun(core, config.instructions, config.maxCycles, *trace);
            const rab::Cycle cycles = core.cycle() - start;
            run.measuredS = secondsSince(t);
            t = Clock::now();
            run.result = rab::collectSimResult(
                config, sim.program().name(), config.runahead, core,
                sim.memory(), sim.faults(), cycles);
        } else {
            run.result = sim.runMeasured();
            run.measuredS = secondsSince(t);
            t = Clock::now();
        }
        run.stats = sim.core().stats().collect();
        for (const auto &[name, value] : sim.memory().stats().collect())
            run.stats.emplace(name, value);
        run.collectS = secondsSince(t);

        run.digest = statsDigest(run.stats);
        if (run.result.instructions < point.instructions) {
            run.error = "committed " + std::to_string(run.result.instructions)
                + " of " + std::to_string(point.instructions)
                + " instructions";
        } else {
            run.ok = true;
        }
    } catch (const std::exception &e) {
        run.error = e.what();
    }
    return run;
}

std::uint64_t
statsDigest(const std::map<std::string, double> &stats)
{
    std::string text;
    char value[40];
    for (const auto &[name, v] : stats) {
        std::snprintf(value, sizeof(value), "=%.17g\n", v);
        text += name;
        text += value;
    }
    return rab::fnv1a64(text);
}

} // namespace perfbench
