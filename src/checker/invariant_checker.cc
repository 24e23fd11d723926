#include "checker/invariant_checker.hh"

#include <algorithm>
#include <cstdlib>

#include "backend/dyn_uop.hh"
#include "backend/execute.hh"
#include "backend/lsq.hh"
#include "backend/reservation_station.hh"
#include "backend/rob.hh"
#include "common/logging.hh"
#include "frontend/frontend.hh"
#include "isa/program.hh"
#include "runahead/chain_engine.hh"
#include "runahead/chain_generator.hh"
#include "runahead/runahead_controller.hh"

namespace rab
{

const char *
checkLevelName(CheckLevel level)
{
    switch (level) {
      case CheckLevel::kOff: return "off";
      case CheckLevel::kCheap: return "cheap";
      case CheckLevel::kFull: return "full";
    }
    return "?";
}

CheckLevel
parseCheckLevel(const std::string &name)
{
    if (name == "off")
        return CheckLevel::kOff;
    if (name == "cheap")
        return CheckLevel::kCheap;
    if (name == "full")
        return CheckLevel::kFull;
    fatal("unknown check level '%s' (off | cheap | full)", name.c_str());
}

CheckLevel
checkLevelFromEnv(CheckLevel fallback)
{
    const char *env = std::getenv("RAB_CHECK_LEVEL");
    if (!env || !*env)
        return fallback;
    return parseCheckLevel(env);
}

const char *
checkPolicyName(CheckPolicy policy)
{
    switch (policy) {
      case CheckPolicy::kThrow: return "throw";
      case CheckPolicy::kDegrade: return "degrade";
    }
    return "?";
}

CheckPolicy
parseCheckPolicy(const std::string &name)
{
    if (name == "throw")
        return CheckPolicy::kThrow;
    if (name == "degrade")
        return CheckPolicy::kDegrade;
    fatal("unknown check policy '%s' (throw | degrade)", name.c_str());
}

CheckPolicy
checkPolicyFromEnv(CheckPolicy fallback)
{
    const char *env = std::getenv("RAB_CHECK_POLICY");
    if (!env || !*env)
        return fallback;
    return parseCheckPolicy(env);
}

InvariantViolation::InvariantViolation(Cycle cycle, std::string module,
                                       std::string invariant,
                                       std::string detail)
    : std::runtime_error(strprintf(
          "invariant violation at cycle %llu [%s/%s]: %s",
          (unsigned long long)cycle, module.c_str(), invariant.c_str(),
          detail.c_str())),
      cycle_(cycle), module_(std::move(module)),
      invariant_(std::move(invariant)), detail_(std::move(detail))
{
}

InvariantChecker::InvariantChecker(CheckLevel level,
                                   const CheckerContext &ctx)
    : level_(level), ctx_(ctx), statGroup_("checker")
{
    if (ctx_.prf)
        refMarks_.assign(static_cast<std::size_t>(ctx_.prf->size()), 0);
}

bool
InvariantChecker::isSpeculativeModule(const char *module)
{
    // Violations in these modules concern speculative structures only:
    // the paper's containment argument guarantees they cannot have
    // corrupted architectural state, so a long run may degrade instead
    // of dying. "runahead" covers chain use, containment and
    // checkpoint discipline around the speculative interval.
    const std::string m = module;
    return m == "chain" || m == "chain_cache" || m == "runahead"
        || m == "engine";
}

void
InvariantChecker::violate(const char *module, const char *invariant,
                          std::string detail)
{
    ++violations;
    warn("invariant violation at cycle %llu [%s/%s]: %s\n  %s",
         (unsigned long long)now_, module, invariant, detail.c_str(),
         stateDump().c_str());
    InvariantViolation violation(now_, module, invariant,
                                 std::move(detail));
    if (policy_ == CheckPolicy::kDegrade && sink_
        && isSpeculativeModule(module)) {
        ++violationsRouted;
        sink_(violation);
        return;
    }
    throw violation;
}

std::string
InvariantChecker::stateDump() const
{
    std::string dump = strprintf("cycle %llu", (unsigned long long)now_);
    if (ctx_.rob) {
        dump += strprintf(", rob %d/%d", ctx_.rob->size(),
                          ctx_.rob->capacity());
        if (!ctx_.rob->empty()) {
            const DynUop &head = ctx_.rob->head();
            dump += strprintf(" (head seq %llu pc %llu completed %d)",
                              (unsigned long long)head.seq,
                              (unsigned long long)head.pc,
                              (int)head.completed);
        }
    }
    if (ctx_.sq)
        dump += strprintf(", sq %d/%d", ctx_.sq->size(),
                          ctx_.sq->capacity());
    if (ctx_.prf)
        dump += strprintf(", prf free %d/%d", ctx_.prf->freeCount(),
                          ctx_.prf->size());
    if (ctx_.runahead)
        dump += strprintf(", mode %d",
                          (int)ctx_.runahead->mode());
    return dump;
}

// ---------------------------------------------------------------------
// Per-cycle driver
// ---------------------------------------------------------------------

void
InvariantChecker::onCycle(Cycle now)
{
    now_ = now;
    if (!enabled())
        return;
    spotChecks();
    if (level_ == CheckLevel::kFull) {
        if (inRunahead_)
            checkArchStateFrozen();
        if (now % kFullScanPeriod == 0)
            fullScan();
    }
}

void
InvariantChecker::onFastForward(Cycle from, Cycle to)
{
    now_ = from;
    if (!enabled() || to <= from)
        return;

    // Legality invariant: every event source must be provably idle for
    // the whole window [from, to). Each condition is re-derived here
    // from the watched structures, independently of the core's own
    // horizon computation, so a bug in either is caught by the other.
    if (ctx_.rob && !ctx_.rob->empty() && ctx_.rob->head().completed) {
        violate("fastforward", "head-committable",
                strprintf("skip of [%llu, %llu) with a completed ROB "
                          "head (seq %llu)",
                          (unsigned long long)from,
                          (unsigned long long)to,
                          (unsigned long long)ctx_.rob->head().seq));
    }
    if (ctx_.wbq && !ctx_.wbq->empty()
        && ctx_.wbq->nextEventCycle() < to) {
        violate("fastforward", "writeback-in-window",
                strprintf("writeback at %llu inside skip [%llu, %llu)",
                          (unsigned long long)ctx_.wbq->nextEventCycle(),
                          (unsigned long long)from,
                          (unsigned long long)to));
    }
    if (ctx_.rs && ctx_.rob && ctx_.prf
        && ctx_.rs->anyReady(*ctx_.rob, *ctx_.prf)) {
        violate("fastforward", "issue-ready",
                strprintf("issue-ready RS entry at the start of skip "
                          "[%llu, %llu)",
                          (unsigned long long)from,
                          (unsigned long long)to));
    }
    if (ctx_.runahead && ctx_.runahead->inRunahead()
        && ctx_.runahead->exitReadyAt() < to) {
        violate("fastforward", "runahead-exit-in-window",
                strprintf("runahead exit at %llu inside skip "
                          "[%llu, %llu)",
                          (unsigned long long)ctx_.runahead->exitReadyAt(),
                          (unsigned long long)from,
                          (unsigned long long)to));
    }
    if (ctx_.frontend) {
        const Frontend &fe = *ctx_.frontend;
        if (!fe.gated() && !fe.queueFull()
            && std::max(from, fe.stalledUntil()) < to) {
            violate("fastforward", "fetch-in-window",
                    strprintf("fetch possible at %llu inside skip "
                              "[%llu, %llu)",
                              (unsigned long long)std::max(
                                  from, fe.stalledUntil()),
                              (unsigned long long)from,
                              (unsigned long long)to));
        }
        // Rename feasibility: a decoded uop becoming rename-ready
        // inside the window is an event unless rename is structurally
        // blocked for the whole window.
        const bool buffer_mode = ctx_.runahead
            && ctx_.runahead->mode() == RunaheadMode::kBuffer;
        const bool structural_block =
            (ctx_.rob && ctx_.rob->full()) || (ctx_.rs && ctx_.rs->full())
            || (ctx_.prf && !ctx_.prf->canAlloc());
        if (!buffer_mode && !fe.queueEmpty() && !structural_block
            && fe.frontReadyCycle() < to
            && !(fe.peek().sop.isStore() && ctx_.sq && ctx_.sq->full())) {
            violate("fastforward", "rename-in-window",
                    strprintf("front-end uop rename-ready at %llu "
                              "inside skip [%llu, %llu)",
                              (unsigned long long)fe.frontReadyCycle(),
                              (unsigned long long)from,
                              (unsigned long long)to));
        }
        if (buffer_mode && ctx_.runahead->buffer().hasOp()
            && !structural_block
            && std::max(from, ctx_.runahead->bufferIssueStart()) < to) {
            violate("fastforward", "buffer-rename-in-window",
                    strprintf("runahead-buffer rename possible inside "
                              "skip [%llu, %llu)",
                              (unsigned long long)from,
                              (unsigned long long)to));
        }
    }

    // Replicate the accounting tick-by-tick onCycle() calls would have
    // produced over the window: the state is frozen, so one spot check
    // (and one full scan when the window covers any) audits the same
    // state every skipped cycle would have.
    spotChecks();
    if (level_ == CheckLevel::kFull) {
        if (inRunahead_)
            checkArchStateFrozen();
        const Cycle period = kFullScanPeriod;
        const std::uint64_t scans = (to + period - 1) / period
            - (from + period - 1) / period;
        if (scans > 0) {
            fullScan();
            checksRun += scans - 1;
        }
    }
}

void
InvariantChecker::spotChecks()
{
    if (ctx_.rob) {
        const Rob &rob = *ctx_.rob;
        if (rob.size() < 0 || rob.size() > rob.capacity()) {
            violate("rob", "size-bounds",
                    strprintf("size %d outside [0, %d]", rob.size(),
                              rob.capacity()));
        }
        if (!rob.empty()) {
            const SeqNum head_seq = rob.head().seq;
            const SeqNum tail_seq = rob.slot(rob.tailSlot()).seq;
            if (head_seq > tail_seq) {
                violate("rob", "age-order",
                        strprintf("head seq %llu younger than tail %llu",
                                  (unsigned long long)head_seq,
                                  (unsigned long long)tail_seq));
            }
        }
    }
    if (ctx_.sq && ctx_.sq->size() > ctx_.sq->capacity()) {
        violate("lsq", "size-bounds",
                strprintf("sq size %d exceeds capacity %d",
                          ctx_.sq->size(), ctx_.sq->capacity()));
    }
    if (ctx_.prf && ctx_.prf->freeCount() > ctx_.prf->size()) {
        violate("rename", "free-list-bounds",
                strprintf("free list %d exceeds file size %d",
                          ctx_.prf->freeCount(), ctx_.prf->size()));
    }
    if (ctx_.runahead
        && ctx_.runahead->inRunahead() != inRunahead_) {
        violate("runahead", "mode-transition",
                strprintf("controller mode %d but checker saw no %s "
                          "transition hook",
                          (int)ctx_.runahead->mode(),
                          inRunahead_ ? "exit" : "entry"));
    }
}

void
InvariantChecker::fullScan()
{
    checkRobOrder();
    checkStoreQueue();
    checkRenameState();
    if (ctx_.engine) {
        // Continuous Runahead containment: the engine may only ever
        // prefetch — stores stay in its slot buffers and every fill it
        // tracks stays inside the owning core's namespaced slice.
        std::string why;
        if (!ctx_.engine->auditContainment(&why))
            violate("engine", "prefetch-only", std::move(why));
    }
    ++checksRun;
}

// ---------------------------------------------------------------------
// Invariant 1: ROB age order / head-only retirement
// ---------------------------------------------------------------------

void
InvariantChecker::checkRobOrder()
{
    if (!ctx_.rob)
        return;
    const Rob &rob = *ctx_.rob;
    SeqNum prev = 0;
    for (int i = 0; i < rob.size(); ++i) {
        const int slot = rob.logicalToSlot(i);
        if (!rob.validSlot(slot, rob.slot(slot).seq)) {
            violate("rob", "live-entries",
                    strprintf("logical entry %d (slot %d) is dead", i,
                              slot));
        }
        const SeqNum seq = rob.slot(slot).seq;
        if (i > 0 && seq <= prev) {
            violate("rob", "age-order",
                    strprintf("entry %d seq %llu not older than "
                              "entry %d seq %llu",
                              i - 1, (unsigned long long)prev, i,
                              (unsigned long long)seq));
        }
        prev = seq;
    }
}

void
InvariantChecker::onChainGenerated(const ChainGenerator &gen,
                                   Pc blocking_pc, SeqNum blocking_seq)
{
    if (level_ == CheckLevel::kFull)
        checkRobIndexes(gen, blocking_pc, blocking_seq);
}

void
InvariantChecker::checkRobIndexes(const ChainGenerator &gen,
                                  Pc blocking_pc, SeqNum blocking_seq)
{
    if (!ctx_.rob)
        return;
    const Rob &rob = *ctx_.rob;

    // The generator builds its CAMs when it runs (chain_generator.hh);
    // compare them against the ROB's whole-window scans, the RS
    // hasReady/anyReady pattern. The PC CAM must find the same match.
    const int match = rob.findOldestByPc(blocking_pc, blocking_seq);
    if (gen.matchSlot() != match) {
        violate("rob", "index-coherence",
                strprintf("generator pc cam finds slot %d for pc %llu "
                          "after seq %llu, scan finds %d",
                          gen.matchSlot(), (unsigned long long)blocking_pc,
                          (unsigned long long)blocking_seq, match));
    }

    // The register CAM must agree with the scan for every register each
    // entry up to the match reads or writes, queried at that entry's
    // seq — every consumer the producer walk can ask about — and past
    // the tail when there is no match (the lookup then spans the
    // window).
    const auto agree = [&](ArchReg reg, SeqNum before) {
        if (reg == kNoArchReg)
            return;
        const int looked_up = gen.findProducer(reg, before);
        const int scanned = rob.findProducer(reg, before);
        if (looked_up != scanned) {
            violate("rob", "index-coherence",
                    strprintf("generator register cam finds slot %d for "
                              "r%d before seq %llu, scan finds %d",
                              looked_up, (int)reg,
                              (unsigned long long)before, scanned));
        }
    };
    for (int i = 0; i < rob.size(); ++i) {
        const int slot = rob.logicalToSlot(i);
        const DynUop &uop = rob.slot(slot);
        agree(uop.sop.src1, uop.seq);
        agree(uop.sop.src2, uop.seq);
        agree(uop.sop.dest, uop.seq);
        if (slot == match)
            break;
    }
    if (match < 0 && !rob.empty()) {
        const SeqNum past_tail = rob.slot(rob.tailSlot()).seq + 1;
        for (ArchReg reg = 0; reg < kNumArchRegs; ++reg)
            agree(reg, past_tail);
    }
}

void
InvariantChecker::onRetire(const DynUop &uop, int rob_slot)
{
    if (!enabled() || !ctx_.rob)
        return;
    const Rob &rob = *ctx_.rob;
    if (rob.empty() || rob_slot != rob.headSlot()) {
        violate("rob", "retire-at-head",
                strprintf("retiring slot %d but head slot is %d",
                          rob_slot, rob.empty() ? -1 : rob.headSlot()));
    }
    if (uop.seq != rob.head().seq) {
        violate("rob", "retire-at-head",
                strprintf("retiring seq %llu but head seq is %llu",
                          (unsigned long long)uop.seq,
                          (unsigned long long)rob.head().seq));
    }
    if (!uop.completed) {
        violate("rob", "retire-completed",
                strprintf("retiring seq %llu pc %llu before completion",
                          (unsigned long long)uop.seq,
                          (unsigned long long)uop.pc));
    }
}

// ---------------------------------------------------------------------
// Invariant 2: store queue <-> ROB agreement, forwarding order
// ---------------------------------------------------------------------

void
InvariantChecker::checkStoreQueue()
{
    if (!ctx_.sq)
        return;
    const StoreQueue &sq = *ctx_.sq;
    SeqNum prev = 0;
    bool first = true;
    for (const StoreQueue::Entry &e : sq.entries()) {
        if (!first && e.seq <= prev) {
            violate("lsq", "program-order",
                    strprintf("sq entry seq %llu not older than "
                              "successor seq %llu",
                              (unsigned long long)prev,
                              (unsigned long long)e.seq));
        }
        first = false;
        prev = e.seq;
        if (ctx_.rob) {
            if (!ctx_.rob->validSlot(e.robSlot, e.seq)) {
                violate("lsq", "rob-agreement",
                        strprintf("sq entry seq %llu points at dead "
                                  "rob slot %d",
                                  (unsigned long long)e.seq, e.robSlot));
            }
            if (!ctx_.rob->slot(e.robSlot).isStore()) {
                violate("lsq", "rob-agreement",
                        strprintf("sq entry seq %llu maps to a "
                                  "non-store uop",
                                  (unsigned long long)e.seq));
            }
        }
    }
    if (ctx_.rob) {
        int rob_stores = 0;
        for (int i = 0; i < ctx_.rob->size(); ++i) {
            if (ctx_.rob->slot(ctx_.rob->logicalToSlot(i)).isStore())
                ++rob_stores;
        }
        if (rob_stores != sq.size()) {
            violate("lsq", "one-to-one",
                    strprintf("%d in-flight store uops but %d sq "
                              "entries",
                              rob_stores, sq.size()));
        }
    }
}

void
InvariantChecker::onForward(SeqNum load_seq, SeqNum store_seq)
{
    if (!enabled())
        return;
    if (store_seq >= load_seq) {
        violate("lsq", "forward-program-order",
                strprintf("load seq %llu forwarded from store seq %llu "
                          "(not older)",
                          (unsigned long long)load_seq,
                          (unsigned long long)store_seq));
    }
}

// ---------------------------------------------------------------------
// Invariant 3: rename map + free list partition the register file
// ---------------------------------------------------------------------

void
InvariantChecker::checkRenameState()
{
    if (!ctx_.prf || !ctx_.rat)
        return;
    const PhysRegFile &prf = *ctx_.prf;
    const Rat &rat = *ctx_.rat;
    const int num_regs = prf.size();
    refMarks_.assign(static_cast<std::size_t>(num_regs), 0);
    constexpr std::uint8_t kRefRat = 1;
    constexpr std::uint8_t kRefPdst = 2;
    constexpr std::uint8_t kRefPrev = 4;

    const auto reference = [&](PhysReg reg, std::uint8_t kind,
                               const char *what, int who) {
        if (reg == kNoPhysReg || reg >= num_regs) {
            violate("rename", "valid-mapping",
                    strprintf("%s %d names invalid phys reg %d", what,
                              who, (int)reg));
        }
        if (!prf.allocated(reg)) {
            violate("rename", "free-in-use",
                    strprintf("%s %d names phys reg %d which is on the "
                              "free list",
                              what, who, (int)reg));
        }
        if ((kind != kRefPrev) && (refMarks_[reg] & kind)) {
            violate("rename", "aliased-mapping",
                    strprintf("phys reg %d referenced twice as %s",
                              (int)reg, what));
        }
        refMarks_[reg] |= kind;
    };

    for (ArchReg r = 0; r < kNumArchRegs; ++r)
        reference(rat.map(r), kRefRat, "rat entry", r);

    if (ctx_.rob) {
        for (int i = 0; i < ctx_.rob->size(); ++i) {
            const DynUop &uop =
                ctx_.rob->slot(ctx_.rob->logicalToSlot(i));
            if (!uop.sop.hasDest())
                continue;
            if (uop.pdst != kNoPhysReg)
                reference(uop.pdst, kRefPdst, "rob pdst", i);
            if (uop.prevPdst != kNoPhysReg)
                reference(uop.prevPdst, kRefPrev, "rob prevPdst", i);
        }
    }

    int allocated = 0;
    for (int p = 0; p < num_regs; ++p) {
        const bool is_alloc = prf.allocated(static_cast<PhysReg>(p));
        if (is_alloc)
            ++allocated;
        // Without the ROB view a subset of allocated regs (in-flight
        // destinations) is legitimately unreferenced.
        if (is_alloc && ctx_.rob && refMarks_[p] == 0) {
            violate("rename", "register-leak",
                    strprintf("phys reg %d allocated but unreachable "
                              "from the rat or any in-flight uop",
                              p));
        }
    }
    if (allocated + prf.freeCount() != num_regs) {
        violate("rename", "partition",
                strprintf("%d allocated + %d free != %d registers",
                          allocated, prf.freeCount(), num_regs));
    }
}

// ---------------------------------------------------------------------
// Invariant 4: Algorithm 1 chain well-formedness
// ---------------------------------------------------------------------

void
InvariantChecker::checkChain(const DependenceChain &chain,
                             Pc blocking_pc, int max_length)
{
    if (!enabled())
        return;
    if (chain.empty()) {
        violate("chain", "non-empty", "generated chain has no uops");
        return; // Routed: nothing further to inspect.
    }
    if (static_cast<int>(chain.size()) > max_length) {
        violate("chain", "length-cap",
                strprintf("chain has %d uops, cap is %d",
                          (int)chain.size(), max_length));
    }
    const ChainOp &last = chain.back();
    if (!last.sop.isLoad() || last.pc != blocking_pc) {
        violate("chain", "terminates-at-blocking-load",
                strprintf("chain ends with %s at pc %llu, expected a "
                          "load at pc %llu",
                          opcodeName(last.sop.op),
                          (unsigned long long)last.pc,
                          (unsigned long long)blocking_pc));
    }

    const auto check_reg = [&](ArchReg reg, std::size_t idx,
                               const char *what) {
        if (reg != kNoArchReg && reg >= kNumArchRegs) {
            violate("chain", "well-formed-sources",
                    strprintf("chain op %d %s register %d out of "
                              "range",
                              (int)idx, what, (int)reg));
        }
    };
    for (std::size_t i = 0; i < chain.size(); ++i) {
        const ChainOp &op = chain[i];
        if (op.sop.isControl()) {
            violate("chain", "no-control-uops",
                    strprintf("chain op %d at pc %llu is a control uop",
                              (int)i, (unsigned long long)op.pc));
        }
        check_reg(op.sop.dest, i, "dest");
        check_reg(op.sop.src1, i, "src1");
        check_reg(op.sop.src2, i, "src2");
        if (op.sop.isLoad() && op.sop.src1 == kNoArchReg) {
            violate("chain", "well-formed-sources",
                    strprintf("chain op %d load has no address base",
                              (int)i));
        }
        if (op.sop.isStore()
            && (op.sop.src1 == kNoArchReg
                || op.sop.src2 == kNoArchReg)) {
            violate("chain", "well-formed-sources",
                    strprintf("chain op %d store lacks address or data "
                              "source",
                              (int)i));
        }
        if (ctx_.program) {
            if (op.pc >= ctx_.program->size()) {
                violate("chain", "decodes-from-program",
                        strprintf("chain op %d pc %llu outside program "
                                  "of %d uops",
                                  (int)i, (unsigned long long)op.pc,
                                  (int)ctx_.program->size()));
                continue; // Routed: pc is unusable as an index.
            }
            const Uop &ref = ctx_.program->at(op.pc);
            if (ref.op != op.sop.op || ref.func != op.sop.func
                || ref.cond != op.sop.cond || ref.dest != op.sop.dest
                || ref.src1 != op.sop.src1 || ref.src2 != op.sop.src2
                || ref.imm != op.sop.imm
                || ref.target != op.sop.target) {
                violate("chain", "decodes-from-program",
                        strprintf("chain op %d does not match the "
                                  "static uop at pc %llu",
                                  (int)i, (unsigned long long)op.pc));
            }
        }
    }
    // Every source is now known to be well-formed; it is chain-internal
    // if an earlier op writes it, loop-carried if only a later op does
    // (the buffer re-issues the chain as a loop), and live-in otherwise
    // -- all three are legal per Algorithm 1.
}

// ---------------------------------------------------------------------
// Invariant 5: runahead checkpoint / restore / store containment
// ---------------------------------------------------------------------

void
InvariantChecker::onRunaheadEnter(const ArchCheckpoint &checkpoint)
{
    if (!enabled())
        return;
    if (!checkpoint.valid) {
        violate("runahead", "checkpoint-taken",
                "entered runahead with an invalid checkpoint");
    }
    if (ctx_.runahead && !ctx_.runahead->inRunahead()) {
        violate("runahead", "mode-transition",
                "entry hook fired but the controller is not in "
                "runahead");
    }
    if (ctx_.archValues) {
        for (ArchReg r = 0; r < kNumArchRegs; ++r) {
            if (checkpoint.values[r] != (*ctx_.archValues)[r]) {
                violate("runahead", "checkpoint-exact",
                        strprintf("checkpoint r%d = %llu but "
                                  "architectural value is %llu",
                                  (int)r,
                                  (unsigned long long)
                                      checkpoint.values[r],
                                  (unsigned long long)(
                                      *ctx_.archValues)[r]));
            }
        }
        entrySnapshot_ = *ctx_.archValues;
    }
    inRunahead_ = true;
    if (level_ == CheckLevel::kFull || level_ == CheckLevel::kCheap)
        fullScan();
}

void
InvariantChecker::checkArchStateFrozen()
{
    if (!ctx_.archValues || !inRunahead_)
        return;
    for (ArchReg r = 0; r < kNumArchRegs; ++r) {
        if ((*ctx_.archValues)[r] != entrySnapshot_[r]) {
            violate("runahead", "arch-state-frozen",
                    strprintf("architectural r%d changed from %llu to "
                              "%llu during runahead",
                              (int)r,
                              (unsigned long long)entrySnapshot_[r],
                              (unsigned long long)(*ctx_.archValues)[r]));
        }
    }
}

void
InvariantChecker::onRunaheadExit(const ArchCheckpoint &checkpoint)
{
    if (!enabled())
        return;
    const bool entered_under_checker = inRunahead_;
    inRunahead_ = false;
    if (ctx_.runahead && ctx_.runahead->inRunahead()) {
        violate("runahead", "mode-transition",
                "exit hook fired but the controller is still in "
                "runahead");
    }
    if (checkpoint.valid) {
        violate("runahead", "checkpoint-consumed",
                "checkpoint still marked valid after restore");
    }
    if (ctx_.archValues && entered_under_checker) {
        for (ArchReg r = 0; r < kNumArchRegs; ++r) {
            if ((*ctx_.archValues)[r] != entrySnapshot_[r]) {
                violate("runahead", "restore-exact",
                        strprintf("r%d restored to %llu but entry "
                                  "value was %llu",
                                  (int)r,
                                  (unsigned long long)(
                                      *ctx_.archValues)[r],
                                  (unsigned long long)
                                      entrySnapshot_[r]));
            }
        }
    }
    if (ctx_.rob && !ctx_.rob->empty()) {
        violate("runahead", "pipeline-flushed",
                strprintf("rob holds %d entries after runahead exit",
                          ctx_.rob->size()));
    }
    if (ctx_.sq && ctx_.sq->size() != 0) {
        violate("runahead", "pipeline-flushed",
                strprintf("sq holds %d entries after runahead exit",
                          ctx_.sq->size()));
    }
    if (ctx_.prf && ctx_.rat && ctx_.archValues) {
        if (ctx_.prf->freeCount() != ctx_.prf->size() - kNumArchRegs) {
            violate("runahead", "restore-exact",
                    strprintf("%d free regs after exit, expected %d",
                              ctx_.prf->freeCount(),
                              ctx_.prf->size() - kNumArchRegs));
        }
        for (ArchReg r = 0; r < kNumArchRegs; ++r) {
            const PhysReg p = ctx_.rat->map(r);
            if (p == kNoPhysReg || p >= ctx_.prf->size()
                || !ctx_.prf->allocated(p)) {
                violate("runahead", "restore-exact",
                        strprintf("r%d maps to invalid phys reg %d "
                                  "after exit",
                                  (int)r, (int)p));
                continue; // Routed: p is unusable as an index.
            }
            if (ctx_.prf->poisoned(p)) {
                violate("runahead", "restore-exact",
                        strprintf("r%d poisoned after runahead exit "
                                  "(poison leak)",
                                  (int)r));
            }
            if (ctx_.prf->value(p) != (*ctx_.archValues)[r]) {
                violate("runahead", "restore-exact",
                        strprintf("r%d physical value %llu differs "
                                  "from architectural %llu",
                                  (int)r,
                                  (unsigned long long)
                                      ctx_.prf->value(p),
                                  (unsigned long long)(
                                      *ctx_.archValues)[r]));
            }
        }
    }
    if (level_ == CheckLevel::kFull || level_ == CheckLevel::kCheap)
        fullScan();
}

void
InvariantChecker::onRealStore(Addr addr)
{
    if (!enabled())
        return;
    const bool in_runahead =
        ctx_.runahead ? ctx_.runahead->inRunahead() : inRunahead_;
    if (in_runahead) {
        violate("runahead", "store-containment",
                strprintf("runahead store to addr %llu reached the "
                          "real memory hierarchy",
                          (unsigned long long)addr));
    }
}

// ---------------------------------------------------------------------
// Invariant 6: chain cache indexing discipline
// ---------------------------------------------------------------------

void
InvariantChecker::onChainCacheInsert(Pc pc, const DependenceChain &chain)
{
    if (!enabled())
        return;
    if (chain.empty() || !chain.back().sop.isLoad()
        || chain.back().pc != pc) {
        violate("chain_cache", "indexed-by-generating-pc",
                strprintf("insert at pc %llu but chain terminates at "
                          "pc %llu",
                          (unsigned long long)pc,
                          chain.empty()
                              ? 0ull
                              : (unsigned long long)chain.back().pc));
    }
}

void
InvariantChecker::onChainCacheHit(Pc pc, const DependenceChain &chain)
{
    if (!enabled())
        return;
    if (chain.empty() || !chain.back().sop.isLoad()
        || chain.back().pc != pc) {
        violate("chain_cache", "indexed-by-generating-pc",
                strprintf("hit at pc %llu returned a chain terminating "
                          "at pc %llu",
                          (unsigned long long)pc,
                          chain.empty()
                              ? 0ull
                              : (unsigned long long)chain.back().pc));
    }
}

void
InvariantChecker::regStats(StatGroup *parent)
{
    statGroup_.addCounter("checks_run", &checksRun);
    statGroup_.addCounter("violations", &violations);
    statGroup_.addCounter("violations_routed", &violationsRouted);
    if (parent)
        parent->addChild(&statGroup_);
}

} // namespace rab
