#include "backend/core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/profiler.hh"
#include "fault/fault_injector.hh"
#include "isa/functional.hh"

namespace rab
{

Core::Core(const CoreConfig &config, const Program *program,
           MemorySystem *mem)
    : config_(config), program_(program), mem_(mem),
      bp_(config.bp),
      prf_(config.numPhysRegs),
      rob_(config.robEntries),
      rs_(config.rsEntries),
      sq_(config.sqEntries),
      ports_(config.issueWidth, config.memPorts),
      runaheadCtrl_(config.runahead),
      watchdog_(config.watchdog),
      statGroup_("core"),
      ffStatGroup_("fastforward")
{
    if (!program_ || program_->empty())
        fatal("core: empty program");
    if (!mem_)
        fatal("core: no memory system");

    if (program_->memoryImage())
        funcMem_.setBackground(program_->memoryImage());

    frontend_ = std::make_unique<Frontend>(config_.frontend, program_,
                                           &bp_, mem_);

    if (config_.runahead.engine.enabled
        || config_.runahead.engine.instantiateInert) {
        // Continuous Runahead: the engine lives beside the memory
        // controller and reads values from the architectural image —
        // const, so it is prefetch-only by construction.
        mem_->enableChainEngine(config_.runahead.engine, &funcMem_);
    }

    resetArchState();

    CheckerContext checker_ctx;
    checker_ctx.rob = &rob_;
    checker_ctx.sq = &sq_;
    checker_ctx.prf = &prf_;
    checker_ctx.rat = &rat_;
    checker_ctx.runahead = &runaheadCtrl_;
    checker_ctx.program = program_;
    checker_ctx.archValues = &archValues_;
    checker_ctx.wbq = &wbq_;
    checker_ctx.frontend = frontend_.get();
    checker_ctx.rs = &rs_;
    checker_ctx.engine = mem_->chainEngine();
    checker_ = std::make_unique<InvariantChecker>(
        checkLevelFromEnv(config_.checkLevel), checker_ctx);
    checker_->setPolicy(checkPolicyFromEnv(config_.checkPolicy));
    checker_->setDegradeSink([this](const InvariantViolation &) {
        runaheadCtrl_.noteSpeculativeFault();
    });
    runaheadCtrl_.setChecker(checker_.get());

    statGroup_.addCounter("committed_uops", &committedUops);
    statGroup_.addCounter("pseudo_retired_uops", &pseudoRetiredUops);
    statGroup_.addCounter("renamed_uops", &renamedUops);
    statGroup_.addCounter("issued_uops", &issuedUops);
    statGroup_.addCounter("issued_mem_uops", &issuedMemUops);
    statGroup_.addCounter("prf_reads", &prfReads);
    statGroup_.addCounter("prf_writes", &prfWrites);
    statGroup_.addCounter("rob_writes", &robWrites);
    statGroup_.addCounter("rob_reads", &robReads);
    statGroup_.addCounter("mem_stall_cycles", &memStallCycles);
    statGroup_.addCounter("stall_load_other", &stallLoadOther);
    statGroup_.addCounter("stall_exec", &stallExec);
    statGroup_.addCounter("stall_empty_rob", &stallEmptyRob);
    statGroup_.addCounter("rob_full_cycles", &robFullCycles);
    statGroup_.addCounter("squashed_uops", &squashedUops);
    statGroup_.addCounter("fig2_miss_total", &fig2MissTotal);
    statGroup_.addCounter("fig2_miss_src_on_chip", &fig2MissSrcOnChip);
    statGroup_.addCounter("loads_forwarded", &loadsForwarded);
    statGroup_.addCounter("runahead_cache_forwards", &runaheadCacheForwards);
    statGroup_.addCounter("load_queue_retries", &loadQueueRetries);
    statGroup_.addCounter("store_queue_retries", &storeQueueRetries);
    statGroup_.addCounter("mem_fault_retries", &memFaultRetries);
    statGroup_.addCounter("watchdog_flushes", &watchdogFlushes);
    statGroup_.addCounter("rs_inserts", &rs_.inserts);
    statGroup_.addCounter("rs_wakeups", &rs_.wakeups);
    statGroup_.addCounter("sq_forwards", &sq_.forwards);
    statGroup_.addCounter("sq_searches", &sq_.searches);
    ffStatGroup_.addCounter("windows", &ffWindows);
    ffStatGroup_.addCounter("skipped_cycles", &ffSkippedCycles);
    statGroup_.addChild(&ffStatGroup_);

    bp_.regStats(&statGroup_);
    frontend_->regStats(&statGroup_);
    runaheadCtrl_.regStats(&statGroup_);
    watchdog_.regStats(&statGroup_);
    chainAnalysis_.regStats(&statGroup_);
    checker_->regStats(&statGroup_);
}

void
Core::resetArchState()
{
    for (ArchReg r = 0; r < kNumArchRegs; ++r) {
        const std::uint64_t value = program_->initialReg(r);
        const PhysReg pdst = prf_.alloc();
        writePhysReg(pdst, value, /*poisoned=*/false, /*off_chip=*/false);
        rat_.setMap(r, pdst);
        archValues_[r] = value;
    }
}

void
Core::writePhysReg(PhysReg reg, std::uint64_t value, bool poisoned,
                   bool off_chip)
{
    prf_.write(reg, value, poisoned, off_chip);
    rs_.notifyWritten(reg);
}

std::uint64_t
Core::archReg(ArchReg reg) const
{
    if (reg >= kNumArchRegs)
        panic("Core::archReg: bad register %d", (int)reg);
    return archValues_[reg];
}

void
Core::tick()
{
    const Cycle now = cycle_;
    pipelineActivity_ = false;
    {
        ProfScope prof(ProfPhase::kWriteback);
        doWriteback(now);
    }
    {
        ProfScope prof(ProfPhase::kCommit);
        doCommit(now);
    }
    {
        ProfScope prof(ProfPhase::kRunaheadCtl);
        doRunaheadControl(now);
    }
    {
        ProfScope prof(ProfPhase::kIssue);
        doIssue(now);
    }
    {
        ProfScope prof(ProfPhase::kRename);
        doRename(now);
    }
    {
        ProfScope prof(ProfPhase::kFetch);
        frontend_->tick(now);
    }
    runaheadCtrl_.tickCycle();
    {
        ProfScope prof(ProfPhase::kChecker);
        checker_->onCycle(now);
    }
    ++cycle_;

    // Any stage progress can change the runahead controller's entry
    // inputs (ROB/SQ contents, readiness), so the denial memo only
    // survives fully-stalled ticks.
    if (pipelineActivity_)
        entryDenied_ = false;

    // Forward-progress watchdog (fault recovery layer 1): bounded
    // recovery before the hard deadlock panic below can trigger. The
    // expired() pre-check keeps the diagnostic state dump (a multi-line
    // string build) off the per-cycle path: it is only materialized in
    // the rare cycle where the stall bound has actually been exceeded.
    if (watchdog_.expired(cycle_, lastCommitCycle_)
        && watchdog_.shouldRecover(cycle_, lastCommitCycle_, retired_,
                                   checker_->stateDump())) {
        recoverFromWatchdog(cycle_);
    }

    if (cycle_ - lastCommitCycle_ > config_.deadlockCycles) {
        const DynUop *head = rob_.empty() ? nullptr : &rob_.head();
        panic("core deadlock at cycle %llu: no commit since %llu "
              "(rob %d/%d, rs %d, head pc %llu completed %d mode %d)",
              (unsigned long long)cycle_,
              (unsigned long long)lastCommitCycle_, rob_.size(),
              rob_.capacity(), rs_.size(),
              head ? (unsigned long long)head->pc : 0ull,
              head ? (int)head->completed : -1,
              (int)runaheadCtrl_.mode());
    }
}

Cycle
Core::proposeFastForward()
{
    return fastForwardHorizon();
}

void
Core::applyFastForward(Cycle target)
{
    ProfScope prof(ProfPhase::kFastForward);
    checker_->onFastForward(cycle_, target);
    fastForwardTo(target);
}

// ---------------------------------------------------------------------
// Fast-forward engine
// ---------------------------------------------------------------------

Cycle
Core::fastForwardHorizon()
{
    const Cycle now = cycle_;

    // --- Quiescence: if any stage can do work at the very next tick,
    // --- there is nothing to skip.
    if (!rob_.empty()) {
        const DynUop &head = rob_.head();
        // Commit possible (including store commit-retry loops: those
        // touch the memory system every cycle and must tick normally).
        if (head.completed)
            return 0;
        // Runahead pseudo-retires blocked miss loads immediately.
        if (inRunahead() && head.isLoad() && head.memIssued
            && head.offChipWait) {
            return 0;
        }
    }
    if (!wbq_.empty() && wbq_.nextEventCycle() <= now)
        return 0;
    if (rs_.hasReady())
        return 0;

    // --- Horizon: earliest cycle at which any pipeline event can
    // --- occur. Every cap below is exact or conservative (too small
    // --- only costs a shorter skip, never correctness).

    // Deadlock panic and watchdog both fire at the tick that raises
    // (cycle - lastCommit) strictly above their bound; executing that
    // tick for real reproduces tick-by-tick behaviour exactly.
    Cycle horizon = lastCommitCycle_ + config_.deadlockCycles;
    if (watchdog_.enabled()) {
        const Cycle wd = lastCommitCycle_ + watchdog_.config().cycles;
        if (wd < horizon)
            horizon = wd;
    }

    if (!wbq_.empty()) {
        const Cycle wb = wbq_.nextEventCycle();
        if (wb < horizon)
            horizon = wb;
    }

    const bool structural_block =
        rob_.full() || rs_.full() || !prf_.canAlloc();

    // Rename source. Structural blocks (ROB/RS/PRF, store with a full
    // SQ) can only clear through commit or writeback events, which the
    // caps above already bound.
    if (mode() == RunaheadMode::kBuffer) {
        if (runaheadCtrl_.buffer().hasOp()) {
            const Cycle start = runaheadCtrl_.bufferIssueStart();
            if (now < start) {
                if (start < horizon)
                    horizon = start;
            } else if (!structural_block) {
                return 0;
            }
        }
    } else if (!frontend_->queueEmpty() && !structural_block
               && !(frontend_->peek().sop.isStore() && sq_.full())) {
        if (frontend_->hasReady(now))
            return 0;
        const Cycle fr = frontend_->frontReadyCycle();
        if (fr < horizon)
            horizon = fr;
    }

    // Fetch source: every fetch-capable cycle touches the I-cache, so
    // it is only skippable while gated, stalled, or queue-full (the
    // queue cannot drain during the window: rename is blocked above).
    if (!frontend_->gated()) {
        const Cycle stalled = frontend_->stalledUntil();
        if (stalled > now) {
            if (stalled < horizon)
                horizon = stalled;
        } else if (!frontend_->queueFull()) {
            return 0;
        }
    }

    if (inRunahead()) {
        // Exit fires at the first tick at or past blockingReady_.
        const Cycle exit_at = runaheadCtrl_.exitReadyAt();
        if (exit_at <= now)
            return 0;
        if (exit_at < horizon)
            horizon = exit_at;
    } else if (config_.runahead.anyRunahead() && !rob_.empty()) {
        // Entry eligibility: never skip past the tick where
        // decideEntry would run — its per-episode counters (and
        // fault-RNG draws) must match tick-by-tick execution.
        const DynUop &head = rob_.head();
        if (head.isLoad() && head.memIssued && head.offChipWait
            && !entryDenialValid()) {
            if (rob_.full() || rs_.full()) {
                if (head.readyAt > now + config_.minRunaheadDistance)
                    return 0;
                // Too close to the fill: entry declined before
                // decideEntry is consulted — no event to protect.
            } else {
                // Stall-counter path: doCommit increments the stall
                // counter before doRunaheadControl reads it, so the
                // tick at cycle c sees stallCyclesSinceCommit_ + (c -
                // now + 1).
                const Cycle stalled = stallCyclesSinceCommit_ + 1;
                Cycle fire = now
                    + (config_.stallEntryCycles > stalled
                           ? config_.stallEntryCycles - stalled
                           : 0);
                // renameProgress_ still holds last tick's value at the
                // first skipped tick only (doRename clears it later in
                // the same tick).
                if (fire == now && renameProgress_)
                    fire = now + 1;
                if (fire == now)
                    return 0;
                if (head.readyAt > fire + config_.minRunaheadDistance
                    && fire < horizon) {
                    horizon = fire;
                }
            }
        }
    }

    // Degradation-ladder probation: a re-enable step inside the window
    // would change controller behaviour; cap the skip below it so the
    // transition happens in a real tick.
    const std::uint64_t max_skip =
        runaheadCtrl_.ladder().maxSkippableCycles();
    if (max_skip < horizon - now)
        horizon = now + max_skip;

    // Memory-system events (fills, DRAM bank/bus frees) are consumed
    // lazily by later accesses, but bound the skip at the next one so
    // no window ever straddles a memory state change.
    const Cycle mem_next = mem_->nextEventCycle(now);
    if (mem_next > now && mem_next < horizon)
        horizon = mem_next;

    return horizon;
}

void
Core::fastForwardTo(Cycle target)
{
    const std::uint64_t delta = target - cycle_;

    // Replicate exactly what `delta` fully-stalled ticks would have
    // accumulated. The stall classification is frozen for the whole
    // window: nothing can complete, commit, issue or rename inside it.
    stallCyclesSinceCommit_ += delta;
    if (rob_.empty()) {
        stallEmptyRob += delta;
    } else if (!inRunahead()) {
        const DynUop &head = rob_.head();
        if (!head.completed && head.isLoad() && head.memIssued
            && head.offChipWait) {
            memStallCycles += delta;
        } else if (!head.completed && head.isLoad()) {
            stallLoadOther += delta;
        } else if (!head.completed) {
            stallExec += delta;
        }
    }
    if (rob_.full())
        robFullCycles += delta;

    // selectReady() counts one wakeup per resident entry per cycle
    // even when nothing issues.
    rs_.wakeups += static_cast<std::uint64_t>(rs_.size()) * delta;

    frontend_->accountSkippedCycles(cycle_, delta);
    runaheadCtrl_.accountSkippedCycles(delta);

    renameProgress_ = false;
    ++ffWindows;
    ffSkippedCycles += delta;
    cycle_ = target;
}

// ---------------------------------------------------------------------
// Writeback
// ---------------------------------------------------------------------

void
Core::doWriteback(Cycle now)
{
    for (const WbEvent &ev : wbq_.popReady(now)) {
        pipelineActivity_ = true;
        if (!rob_.validSlot(ev.robSlot, ev.seq))
            continue; // Squashed or already pseudo-retired.
        DynUop &uop = rob_.slot(ev.robSlot);
        uop.executed = true;
        uop.completed = true;

        if (uop.sop.hasDest() && uop.pdst != kNoPhysReg) {
            const bool off_chip = uop.isLoad()
                ? (uop.llcMiss || uop.poisoned)
                : (uop.srcFromOffChip || uop.poisoned);
            writePhysReg(uop.pdst, uop.result, uop.poisoned, off_chip);
            ++prfWrites;
        }

        if (config_.runahead.traditionalEnabled
            && mode() == RunaheadMode::kTraditional) {
            chainAnalysis_.recordExec(uop);
            // Chains that lead to cache misses: both fresh misses and
            // merges into fills a previous interval started (the chain
            // still produced an off-chip access).
            if (uop.isLoad() && uop.offChipWait && uop.isRunahead)
                chainAnalysis_.recordMiss(uop);
        }

        if (uop.isControl())
            resolveBranch(ev.robSlot, uop, now);
    }
}

void
Core::resolveBranch(int slot, DynUop &uop, Cycle now)
{
    if (uop.poisoned) {
        // A poisoned branch cannot be verified: runahead follows the
        // predicted path.
        uop.actualTaken = uop.predTaken;
        uop.nextPc = uop.predTarget;
        return;
    }
    const bool mispredicted = uop.actualTaken != uop.predTaken
        || (uop.actualTaken && uop.nextPc != uop.predTarget);
    if (!mispredicted)
        return;

    ++bp_.mispredicts;
    uop.mispredicted = true;
    squashYoungerThan(slot, uop.seq);
    bp_.setHistory((uop.historySnapshot << 1)
                   | (uop.actualTaken ? 1 : 0));
    frontend_->redirect(uop.nextPc, now + 1 + config_.redirectPenalty);
    // Normalise so a replayed writeback does not re-trigger recovery.
    uop.predTaken = uop.actualTaken;
    uop.predTarget = uop.nextPc;
}

void
Core::squashYoungerThan(int slot, SeqNum seq)
{
    while (!rob_.empty()) {
        const int tail = rob_.tailSlot();
        if (tail == slot)
            break;
        DynUop &t = rob_.slot(tail);
        if (t.seq <= seq)
            break;
        if (t.sop.hasDest() && t.pdst != kNoPhysReg) {
            rat_.setMap(t.sop.dest, t.prevPdst);
            prf_.free(t.pdst);
        }
        rob_.popTail();
        ++squashedUops;
    }
    rs_.squashAfter(seq);
    sq_.squashAfter(seq);
}

// ---------------------------------------------------------------------
// Commit / pseudo-retirement
// ---------------------------------------------------------------------

void
Core::doCommit(Cycle now)
{
    const bool runahead = inRunahead();
    int commits = 0;
    for (int i = 0; i < config_.commitWidth && !rob_.empty(); ++i) {
        DynUop &head = rob_.head();
        if (!head.completed) {
            if (runahead && head.isLoad() && head.memIssued
                && head.offChipWait) {
                // Runahead pseudo-retires miss loads with a poisoned
                // destination instead of waiting for the data.
                if (head.pdst != kNoPhysReg) {
                    writePhysReg(head.pdst, 0, /*poisoned=*/true,
                                 /*off_chip=*/true);
                    ++prfWrites;
                }
                head.poisoned = true;
                head.executed = true;
                head.completed = true;
            } else {
                break;
            }
        }

        if (!runahead && head.isStore()) {
            checker_->onRealStore(head.effAddr);
            const AccessResult res =
                mem_->access(AccessType::kStore, head.effAddr, now);
            if (res.rejected) {
                // Memory queue full (or faulted): retry next cycle.
                ++storeQueueRetries;
                if (res.faulted)
                    ++memFaultRetries;
                break;
            }
            funcMem_.write(head.effAddr, head.result);
        }

        if (head.sop.hasDest() && head.prevPdst != kNoPhysReg)
            prf_.free(head.prevPdst);
        if (head.isStore())
            sq_.release(head.seq);
        if (head.sop.op == Opcode::kBranch && !head.poisoned) {
            bp_.update(head.pc, head.actualTaken, head.nextPc,
                       head.historySnapshot);
        }

        if (!runahead) {
            if (head.sop.hasDest())
                archValues_[head.sop.dest] = head.result;
            resumePc_ = head.isControl() ? head.nextPc : head.pc + 1;
            ++retired_;
            ++committedUops;
            if (commitHook_)
                commitHook_(head);
        } else {
            ++pseudoRetiredUops;
            ++pseudoRetiredInterval_;
        }
        checker_->onRetire(head, rob_.headSlot());
        ++robReads;
        rob_.popHead();
        ++commits;
    }

    if (commits > 0) {
        pipelineActivity_ = true;
        lastCommitCycle_ = now;
        stallCyclesSinceCommit_ = 0;
    } else {
        ++stallCyclesSinceCommit_;
        if (rob_.empty()) {
            ++stallEmptyRob;
        } else if (!runahead) {
            const DynUop &head = rob_.head();
            if (!head.completed && head.isLoad() && head.memIssued
                && head.offChipWait) {
                ++memStallCycles;
            } else if (!head.completed && head.isLoad()) {
                ++stallLoadOther;
            } else if (!head.completed) {
                ++stallExec;
            }
        }
    }
    if (rob_.full())
        ++robFullCycles;
}

// ---------------------------------------------------------------------
// Runahead entry / exit
// ---------------------------------------------------------------------

void
Core::doRunaheadControl(Cycle now)
{
    if (inRunahead()) {
        if (runaheadCtrl_.shouldExit(now))
            exitRunahead(now);
        return;
    }
    if (!config_.runahead.anyRunahead() || rob_.empty())
        return;

    DynUop &head = rob_.head();
    if (head.completed || !head.isLoad() || !head.memIssued
        || !head.offChipWait) {
        return;
    }
    // Not worth checkpointing if the data is about to arrive.
    if (head.readyAt <= now + config_.minRunaheadDistance)
        return;
    const bool back_pressure = rob_.full() || rs_.full()
        || (stallCyclesSinceCommit_ >= config_.stallEntryCycles
            && !renameProgress_);
    if (!back_pressure)
        return;

    // While the pipeline is fully stalled the controller sees frozen
    // inputs, so a denied entry decision is memoised instead of being
    // re-evaluated every cycle (see entryDenialValid()).
    if (entryDenialValid())
        return;

    const EntryDecision decision = runaheadCtrl_.decideEntry(
        rob_, sq_, head, fetchedInstrNum_, retired_);
    if (decision.enter) {
        enterRunahead(decision, now);
    } else {
        entryDenied_ = true;
        entryDeniedSeq_ = head.seq;
        entryDeniedLadderSteps_ = ladderTransitions();
    }
}

bool
Core::entryDenialValid() const
{
    return entryDenied_ && !rob_.empty()
        && rob_.head().seq == entryDeniedSeq_
        && ladderTransitions() == entryDeniedLadderSteps_;
}

std::uint64_t
Core::ladderTransitions() const
{
    const DegradationLadder &ladder = runaheadCtrl_.ladder();
    return ladder.degradeSteps.value() + ladder.reenableSteps.value();
}

void
Core::enterRunahead(const EntryDecision &decision, Cycle now)
{
    pipelineActivity_ = true;
    const DynUop &head = rob_.head();

    checkpoint_.values = archValues_;
    checkpoint_.branchHistory = head.historySnapshot;
    checkpoint_.ras = bp_.rasSnapshot();
    checkpoint_.resumePc = head.pc;
    checkpoint_.valid = true;
    retiredAtEntry_ = retired_;
    pseudoRetiredInterval_ = 0;

    runaheadCtrl_.enter(decision, now, head.readyAt, retired_);

    // Poison every in-flight LLC miss (including the blocking head):
    // runahead does not wait for off-chip data.
    for (int i = 0; i < rob_.size(); ++i) {
        DynUop &u = rob_.slot(rob_.logicalToSlot(i));
        if (u.isLoad() && u.memIssued && !u.completed
            && u.offChipWait) {
            if (u.pdst != kNoPhysReg) {
                writePhysReg(u.pdst, 0, /*poisoned=*/true,
                             /*off_chip=*/true);
                ++prfWrites;
            }
            u.poisoned = true;
            u.executed = true;
            u.completed = true;
        }
    }

    if (decision.mode == RunaheadMode::kBuffer) {
        // The runahead buffer supplies rename; clock-gate the
        // front-end for the whole interval.
        frontend_->setGated(true);
        if (ChainEngine *engine = mem_->chainEngine()) {
            // Continuous Runahead: the chain that blocked the window
            // keeps running at the memory controller after this
            // interval ends, seeded with the committed register state.
            engine->shipChain(head.pc, decision.chain, archValues_,
                              now);
        }
    } else if (config_.runahead.traditionalEnabled) {
        chainAnalysis_.beginInterval();
    }

    checker_->onRunaheadEnter(checkpoint_);
}

void
Core::exitRunahead(Cycle now)
{
    pipelineActivity_ = true;
    const RunaheadMode exit_mode = mode();
    if (exit_mode == RunaheadMode::kTraditional
        && config_.runahead.traditionalEnabled) {
        chainAnalysis_.endInterval();
    }

    const std::uint64_t farthest = exit_mode == RunaheadMode::kTraditional
        ? retiredAtEntry_ + pseudoRetiredInterval_
        : retiredAtEntry_;
    runaheadCtrl_.exit(farthest);

    // Flush the whole pipeline and restore the checkpoint.
    rob_.clear();
    rs_.clear();
    sq_.clear();
    wbq_.clear();
    prf_.resetAll();
    for (ArchReg r = 0; r < kNumArchRegs; ++r) {
        const PhysReg pdst = prf_.alloc();
        writePhysReg(pdst, checkpoint_.values[r], /*poisoned=*/false,
                     /*off_chip=*/false);
        rat_.setMap(r, pdst);
        archValues_[r] = checkpoint_.values[r];
    }
    bp_.setHistory(checkpoint_.branchHistory);
    bp_.rasRestore(checkpoint_.ras);
    frontend_->setGated(false);
    frontend_->redirect(checkpoint_.resumePc, now + config_.exitPenalty);
    checkpoint_.valid = false;

    checker_->onRunaheadExit(checkpoint_);
}

// ---------------------------------------------------------------------
// Watchdog recovery
// ---------------------------------------------------------------------

void
Core::recoverFromWatchdog(Cycle now)
{
    pipelineActivity_ = true;
    ++watchdogFlushes;
    if (inRunahead()) {
        // Runahead exit is already a full flush-and-restore to the
        // checkpoint; reuse it as the recovery action.
        exitRunahead(now);
    } else {
        flushToArchState(now);
    }
    // Count the flush as progress so the watchdog re-arms for a full
    // bound instead of re-firing every cycle.
    lastCommitCycle_ = now;
    stallCyclesSinceCommit_ = 0;
}

void
Core::flushToArchState(Cycle now)
{
    // The ROB head (oldest un-retired uop) is the restart point; if
    // the ROB already drained, resume after the last retirement.
    const Pc resume = rob_.empty() ? resumePc_ : rob_.head().pc;

    // Discard every in-flight structure. Nothing here has touched
    // architectural state: archValues_/funcMem_ only change at
    // commit, so refetching from `resume` replays deterministically.
    rob_.clear();
    rs_.clear();
    sq_.clear();
    wbq_.clear();
    prf_.resetAll();
    for (ArchReg r = 0; r < kNumArchRegs; ++r) {
        const PhysReg pdst = prf_.alloc();
        writePhysReg(pdst, archValues_[r], /*poisoned=*/false,
                     /*off_chip=*/false);
        rat_.setMap(r, pdst);
    }
    frontend_->setGated(false);
    frontend_->redirect(resume, now + config_.exitPenalty);
}

// ---------------------------------------------------------------------
// Issue / execute
// ---------------------------------------------------------------------

void
Core::doIssue(Cycle now)
{
    ports_.newCycle();
    const std::vector<int> &selected =
        rs_.selectReady(config_.issueWidth);
    if (!selected.empty())
        pipelineActivity_ = true;
    for (const int slot : selected) {
        DynUop &uop = rob_.slot(slot);
        const bool is_mem = uop.sop.isMem();
        if (is_mem ? !ports_.takeMem() : !ports_.takeAlu()) {
            rs_.reinsert(slot, uop.seq, uop.psrc1, uop.psrc2, prf_);
            continue;
        }

        uop.v1 = uop.psrc1 != kNoPhysReg ? prf_.value(uop.psrc1) : 0;
        uop.v2 = uop.psrc2 != kNoPhysReg ? prf_.value(uop.psrc2) : 0;
        prfReads += uop.sop.numSrcs();
        const bool poisoned =
            (uop.psrc1 != kNoPhysReg && prf_.poisoned(uop.psrc1))
            || (uop.psrc2 != kNoPhysReg && prf_.poisoned(uop.psrc2));
        uop.srcFromOffChip =
            (uop.psrc1 != kNoPhysReg && prf_.offChip(uop.psrc1))
            || (uop.psrc2 != kNoPhysReg && prf_.offChip(uop.psrc2));
        uop.poisoned = poisoned;
        uop.issued = true;
        ++issuedUops;
        if (is_mem)
            ++issuedMemUops;

        if (uop.isLoad())
            issueLoad(slot, uop, now);
        else if (uop.isStore())
            issueStore(slot, uop, now);
        else
            issueCompute(slot, uop, now);
    }
}

void
Core::issueCompute(int slot, DynUop &uop, Cycle now)
{
    const int latency = execLatency(uop.sop.op);
    if (uop.sop.op == Opcode::kBranch) {
        if (!uop.poisoned) {
            uop.actualTaken = evalBranch(uop.sop, uop.v1, uop.v2);
            uop.nextPc = uop.actualTaken ? uop.sop.target : uop.pc + 1;
        }
        // Poisoned branches resolve in resolveBranch as "predicted".
    } else if (uop.sop.op == Opcode::kJump) {
        uop.actualTaken = true;
        uop.nextPc = uop.sop.target;
    } else if (uop.sop.op != Opcode::kNop) {
        uop.result = uop.poisoned ? 0 : evalAlu(uop.sop, uop.v1, uop.v2);
    }
    wbq_.schedule(now + latency, slot, uop.seq);
}

void
Core::issueLoad(int slot, DynUop &uop, Cycle now)
{
    if (uop.poisoned) {
        // Poisoned address: propagate poison without touching memory.
        uop.result = 0;
        wbq_.schedule(now + 1, slot, uop.seq);
        return;
    }

    uop.effAddr = effectiveAddr(uop.sop, uop.v1);

    const SqSearch search = sq_.searchForLoad(uop.seq, uop.effAddr);
    if (search.kind == SqSearch::Kind::kUnknownAddr
        || search.kind == SqSearch::Kind::kNotReady) {
        rs_.reinsert(slot, uop.seq, uop.psrc1, uop.psrc2, prf_);
        return;
    }
    if (search.kind == SqSearch::Kind::kForward) {
        checker_->onForward(uop.seq, search.storeSeq);
        uop.result = search.data;
        uop.poisoned = search.poisoned;
        uop.forwarded = true;
        uop.memIssued = true;
        ++loadsForwarded;
        wbq_.schedule(now + 1, slot, uop.seq);
        return;
    }

    if (inRunahead()) {
        std::uint64_t data = 0;
        if (runaheadCtrl_.runaheadCache().read(uop.effAddr, data)) {
            uop.result = data;
            uop.memIssued = true;
            ++runaheadCacheForwards;
            wbq_.schedule(now + 1, slot, uop.seq);
            return;
        }
    }

    const AccessResult res =
        mem_->access(AccessType::kLoad, uop.effAddr, now, inRunahead());
    if (res.rejected) {
        ++loadQueueRetries;
        if (res.faulted)
            ++memFaultRetries;
        rs_.reinsert(slot, uop.seq, uop.psrc1, uop.psrc2, prf_);
        return;
    }
    uop.memIssued = true;
    uop.missIssueInstrNum = fetchedInstrNum_;
    uop.llcMiss = res.llcMiss;
    uop.offChipWait = res.llcMiss || res.pendingMiss;
    uop.readyAt = res.readyCycle;

    if (inRunahead()) {
        if (uop.offChipWait) {
            // Runahead does not wait for off-chip data: the request
            // itself is the prefetch (this is the generated MLP). A
            // merge into an in-flight fill poisons too but creates no
            // new parallelism.
            if (res.llcMiss)
                runaheadCtrl_.noteRunaheadMiss();
            uop.poisoned = true;
            uop.result = 0;
            wbq_.schedule(now + mem_->config().l1d.latency, slot,
                          uop.seq);
        } else {
            uop.result = funcMem_.read(uop.effAddr);
            wbq_.schedule(res.readyCycle, slot, uop.seq);
        }
        return;
    }

    uop.result = funcMem_.read(uop.effAddr);
    wbq_.schedule(res.readyCycle, slot, uop.seq);
    if (res.llcMiss) {
        ++fig2MissTotal;
        if (!uop.srcFromOffChip)
            ++fig2MissSrcOnChip;
    }
}

void
Core::issueStore(int slot, DynUop &uop, Cycle now)
{
    const bool addr_poisoned =
        uop.psrc1 != kNoPhysReg && prf_.poisoned(uop.psrc1);
    const bool data_poisoned =
        uop.psrc2 != kNoPhysReg && prf_.poisoned(uop.psrc2);

    if (addr_poisoned) {
        sq_.setAddress(uop.seq, 0, /*poisoned=*/true);
    } else {
        uop.effAddr = effectiveAddr(uop.sop, uop.v1);
        sq_.setAddress(uop.seq, uop.effAddr, /*poisoned=*/false);
    }
    sq_.setData(uop.seq, uop.v2, data_poisoned);
    uop.result = uop.v2;
    uop.poisoned = addr_poisoned || data_poisoned;

    if (inRunahead() && !uop.poisoned) {
        // Runahead stores must not become globally observable; they go
        // to the runahead cache for forwarding only.
        runaheadCtrl_.runaheadCache().write(uop.effAddr, uop.v2);
    }
    wbq_.schedule(now + 1, slot, uop.seq);
}

// ---------------------------------------------------------------------
// Rename / dispatch
// ---------------------------------------------------------------------

void
Core::doRename(Cycle now)
{
    renameProgress_ = false;
    const bool buffer_mode = mode() == RunaheadMode::kBuffer;
    if (buffer_mode && now < runaheadCtrl_.bufferIssueStart())
        return; // Chain generation still in progress.

    for (int i = 0; i < config_.renameWidth; ++i) {
        if (buffer_mode) {
            if (!runaheadCtrl_.buffer().hasOp())
                break;
        } else if (!frontend_->hasReady(now)) {
            break;
        }
        if (rob_.full() || rs_.full() || !prf_.canAlloc())
            break;

        // Fill the ROB's tail entry in place: a DynUop is a couple of
        // cache lines, so a stack temporary moved in afterwards would
        // double the stores on the hottest loop in the simulator.
        DynUop &du = rob_.beginPush();
        if (buffer_mode) {
            const ChainOp &cop = runaheadCtrl_.buffer().peek();
            du.pc = cop.pc;
            du.sop = cop.sop;
            // Fault injection: flip fields of the buffer-supplied uop
            // (speculative only; discarded wholesale at runahead exit).
            if (faults_)
                faults_->maybeCorruptUop(du.sop);
        } else {
            const FetchedUop &fu = frontend_->peek();
            du.pc = fu.pc;
            du.sop = fu.sop;
            du.predTaken = fu.predTaken;
            du.predTarget = fu.predTarget;
            du.historySnapshot = fu.historySnapshot;
        }
        if (du.sop.isStore() && sq_.full())
            break; // Abandons the begun push; the slot stays dead.

        if (buffer_mode)
            runaheadCtrl_.buffer().advance();
        else
            frontend_->pop();

        du.seq = ++seqCounter_;
        du.isRunahead = inRunahead();
        du.fromRunaheadBuffer = buffer_mode;
        if (!inRunahead())
            du.instrNum = ++fetchedInstrNum_;
        else
            du.instrNum = fetchedInstrNum_;

        du.psrc1 = du.sop.src1 != kNoArchReg ? rat_.map(du.sop.src1)
                                             : kNoPhysReg;
        du.psrc2 = du.sop.src2 != kNoArchReg ? rat_.map(du.sop.src2)
                                             : kNoPhysReg;
        if (du.sop.hasDest()) {
            du.prevPdst = rat_.map(du.sop.dest);
            du.pdst = prf_.alloc();
            rat_.setMap(du.sop.dest, du.pdst);
        }
        ++renamedUops;

        const SeqNum seq = du.seq;
        const bool is_store = du.sop.isStore();
        const PhysReg psrc1 = du.psrc1;
        const PhysReg psrc2 = du.psrc2;
        const int slot = rob_.finishPush();
        ++robWrites;
        if (is_store)
            sq_.allocate(seq, slot);
        rs_.insert(slot, seq, psrc1, psrc2, prf_);
        renameProgress_ = true;
        pipelineActivity_ = true;
    }
}

} // namespace rab
