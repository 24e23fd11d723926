#include "core/simulation.hh"

#include <stdexcept>

#include "common/logging.hh"
#include "trace/trace.hh"
#include "workloads/suite.hh"

namespace rab
{

std::string
SimResult::toString() const
{
    std::string s = strprintf(
        "%s/%s%s: %llu instrs, %llu cycles, IPC %.3f, MPKI %.2f, "
        "stall %.1f%%, RA intervals %llu, MLP/interval %.2f, "
        "energy %.6f J",
        workload.c_str(), runaheadConfigName(config),
        prefetch ? "+PF" : "", (unsigned long long)instructions,
        (unsigned long long)cycles, ipc, mpki, memStallFraction * 100.0,
        (unsigned long long)runaheadIntervals, missesPerInterval,
        energy.totalJ);
    if (faultsInjected > 0 || watchdogRecoveries > 0
        || degradeSteps > 0) {
        s += strprintf(
            ", faults %llu, watchdog recoveries %llu, degrade steps "
            "%llu (final level %d)",
            (unsigned long long)faultsInjected,
            (unsigned long long)watchdogRecoveries,
            (unsigned long long)degradeSteps, degradeLevel);
    }
    return s;
}

namespace
{

std::vector<Program>
onlyProgram(Program program)
{
    std::vector<Program> programs;
    programs.push_back(std::move(program));
    return programs;
}

/** Move every entry of @p from into @p to (keys are disjoint). */
void
mergeInto(std::map<std::string, double> &to,
          std::map<std::string, double> from)
{
    to.merge(from);
}

} // namespace

Simulation::Simulation(const SimConfig &config, Program program)
    : Simulation(config, onlyProgram(std::move(program)))
{
}

Simulation::Simulation(const SimConfig &config, std::vector<Program> programs)
    : config_(config), programs_(std::move(programs)),
      checkLevel_(checkLevelFromEnv(config.checkLevel)), sharedGroup_("shared")
{
    if (config_.numCores < 1)
        panic("Simulation: numCores %d < 1", config_.numCores);
    if (programs_.size() != static_cast<std::size_t>(config_.numCores)) {
        panic("Simulation: %zu programs for %d cores", programs_.size(),
              config_.numCores);
    }
    const std::size_t n = programs_.size();

    // Per-core configs: the base config, re-finalized under the core's
    // own runahead policy where it differs, with a decorrelated fault
    // seed past core 0.
    coreConfigs_.assign(n, config_);
    for (std::size_t i = 0; i < n; ++i) {
        SimConfig &cc = coreConfigs_[i];
        const RunaheadConfig policy = config_.corePolicy(static_cast<int>(i));
        if (policy != cc.runahead) {
            cc.runahead = policy;
            cc.finalize();
        }
        if (cc.fault.enabled)
            cc.fault.seed += i;
    }

    // Memory: one chip shared by every core, or (isolateMemory) a
    // one-core chip per core.
    if (config_.isolateMemory) {
        for (std::size_t i = 0; i < n; ++i)
            shared_.push_back(std::make_unique<SharedMemory>(config_.mem, 1));
    } else {
        shared_.push_back(
            std::make_unique<SharedMemory>(config_.mem, config_.numCores));
    }
    sharedChip_ = shared_.front()->numCores() > 1;

    faults_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const SimConfig &cc = coreConfigs_[i];
        SharedMemory &chip = *shared_[config_.isolateMemory ? i : 0];
        const int core_id = config_.isolateMemory ? 0 : static_cast<int>(i);
        mems_.push_back(std::make_unique<MemorySystem>(cc.mem, chip, core_id));
        cores_.push_back(std::make_unique<Core>(cc.core, &programs_[i],
                                                mems_[i].get()));
        if (cc.fault.enabled) {
            faults_[i] = std::make_unique<FaultInjector>(cc.fault);
            mems_[i]->setFaultInjector(faults_[i].get());
            cores_[i]->setFaultInjector(faults_[i].get());
        }
    }

    // Stat trees, each claimed outright by this run. One core leaves
    // the raw "core"/"mem" groups unwrapped so its payload keeps the
    // single-core layout; N > 1 nests each core's groups under
    // "core<i>" and publishes the chip-wide counters under "shared".
    if (n > 1) {
        for (std::size_t i = 0; i < n; ++i) {
            auto group = std::make_unique<StatGroup>(
                "core" + std::to_string(i));
            group->addChild(&cores_[i]->stats());
            group->addChild(&mems_[i]->stats());
            if (faults_[i])
                group->addChild(&faults_[i]->stats());
            coreGroups_.push_back(std::move(group));
        }
        if (sharedChip_)
            shared_.front()->regSharedStats(&sharedGroup_);
    }
    for (StatGroup *tree : statTrees())
        tree->claimExclusive(this);

    targets_.resize(n, 0);
    done_.resize(n, 0);
    results_.resize(n);
}

Simulation::~Simulation()
{
    for (StatGroup *tree : statTrees())
        tree->releaseExclusive(this);
}

std::vector<StatGroup *>
Simulation::statTrees()
{
    std::vector<StatGroup *> trees;
    if (coreGroups_.empty()) {
        trees.push_back(&cores_[0]->stats());
        trees.push_back(&mems_[0]->stats());
        if (faults_[0])
            trees.push_back(&faults_[0]->stats());
    } else {
        for (auto &group : coreGroups_)
            trees.push_back(group.get());
        if (sharedChip_)
            trees.push_back(&sharedGroup_);
    }
    return trees;
}

SimResult
Simulation::run()
{
    runWarmup();
    return runMeasured();
}

void
Simulation::runWarmup()
{
    // Warmup: fills caches, trains the branch predictor and the
    // prefetcher; then reset every counter so the measured region is
    // clean.
    if (config_.warmupInstructions == 0)
        return;
    runPhase(config_.warmupInstructions, /*collect=*/false);
    for (StatGroup *tree : statTrees())
        tree->resetCounters();
}

void
Simulation::enableTrace(const std::string &path)
{
    if (cores_.size() > 1) {
        throw std::logic_error(strprintf(
            "enableTrace: a trace records one core's commit stream; "
            "this simulation has %zu cores",
            cores_.size()));
    }
    tracePath_ = path;
}

void
Simulation::runPhase(std::uint64_t instructions, bool collect)
{
    const std::size_t n = cores_.size();
    // All cores advance in lockstep, so every core's cycle() agrees;
    // the limit is relative per phase, like the budgets.
    Cycle cycle = cores_[0]->cycle();
    const Cycle cycle_limit = cycle + config_.maxCycles;
    const bool check_containment =
        sharedChip_ && checkLevel_ == CheckLevel::kFull;

    // Budgets are checked before the first tick: a core with nothing
    // to retire never ticks on its own account.
    std::size_t remaining = 0;
    for (std::size_t i = 0; i < n; ++i) {
        targets_[i] = cores_[i]->retired() + instructions;
        done_[i] = cores_[i]->retired() >= targets_[i];
        if (!done_[i])
            ++remaining;
        else if (collect)
            collectCore(i, cycle);
    }

    // Rotating round-robin tick order: the core that touches the
    // shared memory system first is cycle % n, so no core gets a
    // standing arbitration advantage. Every tick advances the cycle
    // by exactly one, so the start index is kept as a running counter
    // and recomputed only after a fast-forward jump.
    std::size_t start = static_cast<std::size_t>(cycle % n);
    while (remaining > 0 && cycle < cycle_limit) {
        std::size_t i = start;
        for (std::size_t k = 0; k < n; ++k) {
            Core &core = *cores_[i];
            core.tick();
            if (!done_[i] && core.retired() >= targets_[i]) {
                done_[i] = 1;
                --remaining;
                if (collect)
                    collectCore(i, core.cycle());
            }
            if (++i == n)
                i = 0;
        }
        ++cycle;
        if (++start == n)
            start = 0;

        if (check_containment && cycle % kContainmentPeriod == 0)
            checkSharedContainment(cycle);

        if (remaining == 0)
            break;

        // Fast-forward: only when every core is fully stalled AND
        // every core proves quiescence. All cores jump to the minimum
        // horizon together, preserving lockstep; a core may always be
        // moved to a target at or below its own proven horizon.
        bool eligible = true;
        for (std::size_t c = 0; c < n && eligible; ++c)
            eligible = cores_[c]->fastForwardEligible();
        if (!eligible)
            continue;
        Cycle horizon = 0;
        for (std::size_t c = 0; c < n; ++c) {
            const Cycle h = cores_[c]->proposeFastForward();
            if (h == 0) {
                horizon = 0;
                break;
            }
            if (horizon == 0 || h < horizon)
                horizon = h;
        }
        if (horizon > cycle_limit)
            horizon = cycle_limit;
        if (horizon > cycle + 1) {
            for (std::size_t c = 0; c < n; ++c)
                cores_[c]->applyFastForward(horizon);
            cycle = horizon;
            start = static_cast<std::size_t>(cycle % n);
        }
    }

    if (check_containment)
        checkSharedContainment(cycle);

    // The cycle limit can end a phase before a core crosses its
    // budget: report what it retired so far.
    if (collect) {
        for (std::size_t i = 0; i < n; ++i) {
            if (!done_[i])
                collectCore(i, cycle);
        }
    }
}

void
Simulation::collectCore(std::size_t i, Cycle now)
{
    results_[i] = collectSimResult(
        coreConfigs_[i], programs_[i].name(), coreConfigs_[i].runahead,
        *cores_[i], *mems_[i], faults_[i].get(), now - measureStart_);
    if (coreGroups_.empty()) {
        mergeInto(payload_, cores_[i]->stats().collect());
        mergeInto(payload_, mems_[i]->stats().collect());
        if (faults_[i])
            mergeInto(payload_, faults_[i]->stats().collect());
    } else {
        mergeInto(payload_, coreGroups_[i]->collect());
    }
}

void
Simulation::checkSharedContainment(Cycle now)
{
    const SharedMemory &shared = *shared_.front();
    for (std::size_t i = 0; i < mems_.size(); ++i) {
        MemorySystem &mem = *mems_[i];
        const Cache *l1s[] = {&mem.l1i(), &mem.l1d()};
        const char *names[] = {"l1i", "l1d"};
        for (int c = 0; c < 2; ++c) {
            for (const Addr line : l1s[c]->validLines()) {
                // L1 lines are stored namespaced, so they probe the
                // shared LLC directly. A line may legitimately be
                // absent while its refill is still in flight.
                if (shared.llc().probe(line))
                    continue;
                if (mem.missInFlight(line, now))
                    continue;
                throw InvariantViolation(
                    now, "shared-llc", "l1-contained-in-llc",
                    strprintf("core %zu %s line 0x%llx not in shared "
                              "LLC and no miss in flight",
                              i, names[c], (unsigned long long)line));
            }
        }
    }
}

SimResult
Simulation::runMeasured()
{
    std::unique_ptr<TraceWriter> trace;
    if (!tracePath_.empty()) {
        trace = std::make_unique<TraceWriter>(tracePath_);
        cores_[0]->setCommitHook(
            [&trace](const DynUop &uop) { trace->record(uop); });
    }

    payload_.clear();
    measureStart_ = cores_[0]->cycle();
    runPhase(config_.instructions, /*collect=*/true);
    const Cycle cycles = cores_[0]->cycle() - measureStart_;

    if (trace) {
        cores_[0]->setCommitHook(nullptr);
        trace->close();
    }

    if (cores_.size() == 1)
        return results_[0];
    return chipResult(cycles);
}

SimResult
Simulation::chipResult(Cycle cycles)
{
    SimResult r;
    for (const Program &program : programs_)
        r.workload += (r.workload.empty() ? "" : "+") + program.name();
    r.config = config_.runahead;
    r.prefetch = config_.prefetch;
    r.cycles = cycles;
    for (const SimResult &core : results_) {
        r.instructions += core.instructions;
        r.runaheadIntervals += core.runaheadIntervals;
        r.faultsInjected += core.faultsInjected;
        r.watchdogRecoveries += core.watchdogRecoveries;
        r.degradeSteps += core.degradeSteps;
    }
    r.ipc = cycles == 0 ? 0.0
        : static_cast<double>(r.instructions)
            / static_cast<double>(cycles);
    // Each core's own dramRequests reads the chip-wide counter at its
    // own crossing; the chip reports it once, over the whole region.
    for (const auto &chip : shared_)
        r.dramRequests += chip->dramRequests();

    // Chip-level energy: sum the per-core breakdowns component-wise.
    const EnergyCoefficients &ec = config_.energy;
    const double chip_seconds = static_cast<double>(cycles)
        / (config_.mem.dram.coreClockGhz * 1e9);
    for (const SimResult &core : results_) {
        r.energy.frontendJ += core.energy.frontendJ;
        r.energy.renameJ += core.energy.renameJ;
        r.energy.windowJ += core.energy.windowJ;
        r.energy.regfileJ += core.energy.regfileJ;
        r.energy.executeJ += core.energy.executeJ;
        r.energy.cacheJ += core.energy.cacheJ;
        r.energy.dramJ += core.energy.dramJ;
        r.energy.runaheadJ += core.energy.runaheadJ;
        r.energy.engineJ += core.energy.engineJ;
        r.energy.leakageJ += core.energy.leakageJ;
        r.energy.totalJ += core.energy.totalJ;
    }
    r.energy.seconds = chip_seconds;
    if (!sharedChip_)
        return r; // Isolated cores really have private hierarchies.

    // Each core's own breakdown charged the LLC + DRAM static power
    // over that core's measured window, but a shared chip has one LLC
    // and one DRAM channel: back out the N per-core charges and charge
    // it once, over the chip's window (the last finisher's).
    const double shared_static_w = ec.llcLeakageW + ec.dramStaticW;
    double percore_static_j = 0;
    for (const SimResult &core : results_)
        percore_static_j += shared_static_w * core.energy.seconds;
    const double chip_static_j = shared_static_w * chip_seconds;
    r.energy.leakageJ += chip_static_j - percore_static_j;
    r.energy.totalJ += chip_static_j - percore_static_j;

    mergeInto(payload_, sharedGroup_.collect());
    payload_.emplace("shared.energy.frontend_j", r.energy.frontendJ);
    payload_.emplace("shared.energy.rename_j", r.energy.renameJ);
    payload_.emplace("shared.energy.window_j", r.energy.windowJ);
    payload_.emplace("shared.energy.regfile_j", r.energy.regfileJ);
    payload_.emplace("shared.energy.execute_j", r.energy.executeJ);
    payload_.emplace("shared.energy.cache_j", r.energy.cacheJ);
    payload_.emplace("shared.energy.dram_j", r.energy.dramJ);
    payload_.emplace("shared.energy.runahead_j", r.energy.runaheadJ);
    payload_.emplace("shared.energy.engine_j", r.energy.engineJ);
    payload_.emplace("shared.energy.leakage_j", r.energy.leakageJ);
    payload_.emplace("shared.energy.total_j", r.energy.totalJ);
    payload_.emplace("shared.energy.seconds", r.energy.seconds);
    return r;
}

SimResult
collectSimResult(const SimConfig &config,
                 const std::string &workload_name,
                 RunaheadConfig runahead, Core &core, MemorySystem &mem,
                 FaultInjector *faults, Cycle cycles)
{
    Core *core_ = &core;
    MemorySystem *mem_ = &mem;
    FaultInjector *faults_ = faults;

    SimResult r;
    r.workload = workload_name;
    r.config = runahead;
    r.prefetch = config.prefetch;
    r.instructions = core_->committedUops.value();
    r.cycles = cycles;
    r.ipc = cycles == 0 ? 0.0
        : static_cast<double>(r.instructions)
            / static_cast<double>(cycles);
    r.mpki = r.instructions == 0 ? 0.0
        : 1000.0 * static_cast<double>(mem_->llcDemandMisses.value())
            / static_cast<double>(r.instructions);
    r.memStallFraction = cycles == 0 ? 0.0
        : static_cast<double>(core_->memStallCycles.value())
            / static_cast<double>(cycles);
    r.fig2OnChipFraction = core_->fig2MissTotal.value() == 0 ? 0.0
        : static_cast<double>(core_->fig2MissSrcOnChip.value())
            / static_cast<double>(core_->fig2MissTotal.value());

    const ChainAnalysis &ca = core_->chainAnalysis();
    r.necessaryFraction = ca.necessaryFraction();
    r.repeatedFraction = ca.repeatedFraction();
    r.avgChainLength = ca.averageChainLength();

    RunaheadController &ra = core_->runahead();
    r.missesPerInterval = ra.missesPerInterval();
    r.bufferCycleFraction = cycles == 0 ? 0.0
        : static_cast<double>(ra.cyclesBuffer.value())
            / static_cast<double>(cycles);
    const std::uint64_t cc_lookups =
        ra.chainCache().hits.value() + ra.chainCache().misses.value();
    r.chainCacheHitRate = cc_lookups == 0 ? 0.0
        : static_cast<double>(ra.chainCache().hits.value())
            / static_cast<double>(cc_lookups);
    r.chainCacheExactRate = ra.chainCacheCheckedHits.value() == 0 ? 0.0
        : static_cast<double>(ra.chainCacheExactHits.value())
            / static_cast<double>(ra.chainCacheCheckedHits.value());
    r.hybridBufferFraction = ra.bufferCycleFraction();
    r.runaheadIntervals = ra.intervals.value();
    r.dramRequests = mem_->dramRequests();

    if (faults_)
        r.faultsInjected = faults_->totalInjected();
    r.watchdogRecoveries = core_->watchdog().recoveries.value();
    r.degradeSteps = ra.ladder().degradeSteps.value();
    r.degradeLevel = static_cast<int>(ra.ladder().level());

    const EnergyModel energy_model(config.energy);
    r.energy = energy_model.compute(*core_, cycles);
    return r;
}

SimResult
simulateWorkload(const std::string &workload_name,
                 RunaheadConfig runahead, bool prefetch,
                 std::uint64_t instructions,
                 std::uint64_t warmup_instructions)
{
    SimConfig config = makeConfig(runahead, prefetch);
    config.instructions = instructions;
    config.warmupInstructions = warmup_instructions;
    Simulation sim(config, buildSuiteWorkload(workload_name));
    return sim.run();
}

} // namespace rab
