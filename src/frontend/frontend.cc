#include "frontend/frontend.hh"

#include "common/logging.hh"

namespace rab
{

Frontend::Frontend(const FrontendConfig &config, const Program *program,
                   BranchPredictor *bp, MemorySystem *mem)
    : config_(config), program_(program), bp_(bp), mem_(mem),
      statGroup_("frontend")
{
    if (!program_ || program_->empty())
        fatal("frontend: empty program");
    if (config_.fetchQueueEntries <= 0)
        fatal("frontend: bad fetch queue size %d",
              config_.fetchQueueEntries);
    queue_.resize(config_.fetchQueueEntries);
    // The cache model validates line sizes as powers of two, so the
    // per-uop line-boundary test in tick() can mask instead of divide.
    lineMask_ =
        static_cast<Addr>(mem_->config().l1i.lineBytes) - 1;
}

void
Frontend::tick(Cycle now)
{
    if (gated_) {
        ++gatedCycles;
        return;
    }
    if (now < stalledUntil_) {
        ++idleCycles;
        ++icacheStallCycles;
        return;
    }

    // fetchPc_ stays in [0, program size) (constructor, redirect() and
    // the wrap at the bottom of the loop maintain it), so the fetch
    // loop needs no per-uop modulo reduction — integer division was a
    // measurable slice of the per-cycle profile.
    const Pc prog_size = program_->size();
    int fetched = 0;
    for (int slot = 0; slot < config_.fetchWidth; ++slot) {
        if (queueFull())
            break;

        // Model the I-cache access for the line holding this uop. A
        // miss stalls fetch until the line arrives.
        const Addr inst_addr =
            config_.instBase + fetchPc_ * config_.uopBytes;
        if (slot == 0 || (inst_addr & lineMask_) == 0) {
            const AccessResult res =
                mem_->access(AccessType::kInstFetch, inst_addr, now);
            if (res.rejected) {
                stalledUntil_ = now + 1;
                break;
            }
            if (res.l1Miss) {
                stalledUntil_ = res.readyCycle;
                break;
            }
        }

        FetchedUop fu;
        fu.pc = fetchPc_;
        fu.sop = program_->at(fetchPc_);
        fu.historySnapshot = bp_->history();
        fu.readyCycle = now + 1 + config_.decodeDepth;

        Pc next_pc = fu.pc + 1;
        bool taken = false;
        if (fu.sop.op == Opcode::kBranch) {
            const BranchPrediction pred = bp_->predictBranch(fu.pc);
            fu.predTaken = pred.taken;
            fu.predTarget = pred.taken ? pred.target : fu.pc + 1;
            taken = pred.taken;
            next_pc = fu.predTarget;
        } else if (fu.sop.op == Opcode::kJump) {
            // Direct jumps resolve in decode: target comes from the uop.
            fu.predTaken = true;
            fu.predTarget = fu.sop.target;
            taken = true;
            next_pc = fu.sop.target;
        }

        int enq = queueHead_ + queueCount_;
        if (enq >= config_.fetchQueueEntries)
            enq -= config_.fetchQueueEntries;
        queue_[enq] = fu;
        ++queueCount_;
        ++fetchedUops;
        ++fetched;
        // Sequential fall-through reaches prog_size exactly; control
        // targets are validated in range, so a subtract suffices (the
        // modulo stays as a cold fallback for a corrupted predictor
        // target).
        if (next_pc >= prog_size)
            next_pc = next_pc == prog_size ? 0 : next_pc % prog_size;
        fetchPc_ = next_pc;

        if (taken)
            break; // At most one taken control transfer per fetch cycle.
    }

    if (fetched > 0)
        ++activeCycles;
    else
        ++idleCycles;
}

bool
Frontend::hasReady(Cycle now) const
{
    return queueCount_ > 0 && queue_[queueHead_].readyCycle <= now;
}

const FetchedUop &
Frontend::peek() const
{
    if (queueCount_ == 0)
        panic("frontend: peek at empty queue");
    return queue_[queueHead_];
}

FetchedUop
Frontend::pop()
{
    if (queueCount_ == 0)
        panic("frontend: pop from empty queue");
    FetchedUop fu = queue_[queueHead_];
    if (++queueHead_ >= config_.fetchQueueEntries)
        queueHead_ = 0;
    --queueCount_;
    return fu;
}

void
Frontend::accountSkippedCycles(Cycle now, std::uint64_t count)
{
    // Mirror tick()'s no-work branches, in tick()'s priority order.
    // The gating / stall / queue-full condition is frozen across the
    // window (nothing renames, redirects or changes mode during a
    // skipped window), so one classification covers every cycle.
    if (gated_) {
        gatedCycles += count;
    } else if (now < stalledUntil_) {
        idleCycles += count;
        icacheStallCycles += count;
    } else {
        // Fetch queue full: the loop breaks before any I-cache access.
        idleCycles += count;
    }
}

void
Frontend::redirect(Pc pc, Cycle when)
{
    queueHead_ = 0;
    queueCount_ = 0;
    fetchPc_ = pc % program_->size();
    stalledUntil_ = when;
}

void
Frontend::regStats(StatGroup *parent)
{
    statGroup_.addCounter("fetched_uops", &fetchedUops);
    statGroup_.addCounter("active_cycles", &activeCycles);
    statGroup_.addCounter("gated_cycles", &gatedCycles);
    statGroup_.addCounter("idle_cycles", &idleCycles);
    statGroup_.addCounter("icache_stall_cycles", &icacheStallCycles);
    if (parent)
        parent->addChild(&statGroup_);
}

} // namespace rab
