/**
 * @file
 * Chain-generation CAM certification.
 *
 * ChainGenerator::generate builds its PC and destination-register CAMs
 * over the live ROB window when it runs; the ROB keeps only its
 * whole-window linear searches (Rob::findOldestByPc / findProducer).
 * Two layers certify that the lookups equal those scans:
 *
 * 1. A randomized structural differential drives a Rob through long
 *    sequences of push / popHead / popTail / clear — including
 *    squash-to-checkpoint bursts, the pattern branch recovery and
 *    runahead exit produce — and after every mutation runs the
 *    generator for a grid of blocking (pc, seq) pairs, comparing its
 *    PC match and its producer lookup for every register and every
 *    consumer seq it can be asked about against the scans, and running
 *    the invariant checker's own cross-check (checkRobIndexes).
 *
 * 2. Whole simulations of every runahead configuration at full check
 *    level — clean, and again under speculative fault injection — in
 *    which the checker cross-checks the lookups at every chain
 *    generation; an index-coherence violation throws under every
 *    policy.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "backend/lsq.hh"
#include "backend/rob.hh"
#include "checker/invariant_checker.hh"
#include "common/rng.hh"
#include "core/simulation.hh"
#include "runahead/chain_generator.hh"
#include "workloads/suite.hh"

namespace rab
{

// DynUop's field order is deliberate (see dyn_uop.hh): everything the
// per-event pipeline touch reads lives in the first cache line. Pin
// the boundary so an innocent-looking field addition does not silently
// push the status bits onto a second line.
static_assert(offsetof(DynUop, readyAt) == 64,
              "DynUop hot fields must fill exactly the first 64 bytes");
static_assert(sizeof(DynUop) <= 160,
              "DynUop grew past 160 bytes; re-check the ROB footprint");

namespace
{

// --------------------------------------------------------------------
// Layer 1: randomized structural differential
// --------------------------------------------------------------------

DynUop
makeUop(SeqNum seq, Pc pc, Opcode op, ArchReg dest, ArchReg src1,
        ArchReg src2)
{
    DynUop u;
    u.seq = seq;
    u.pc = pc;
    u.sop.op = op;
    u.sop.dest = dest;
    u.sop.src1 = src1;
    u.sop.src2 = src2;
    return u;
}

/** Run the generator for every blocking (pc, seq) in a grid covering
 *  present/absent PCs and seq bounds below, inside and above the live
 *  window, and compare its lookups with the ROB's scans. */
void
expectLookupsMatchScans(const Rob &rob, SeqNum max_seq,
                        std::uint64_t step)
{
    StoreQueue sq(8);
    ChainGenerator gen(ChainGeneratorConfig{});
    CheckerContext ctx;
    ctx.rob = &rob;
    InvariantChecker checker(CheckLevel::kFull, ctx);

    std::vector<SeqNum> befores = {0, 1, max_seq / 2, max_seq,
                                   max_seq + 1};
    befores.reserve(befores.size() + static_cast<std::size_t>(rob.size()));
    for (int i = 0; i < rob.size(); ++i)
        befores.push_back(rob.slot(rob.logicalToSlot(i)).seq);

    const SeqNum afters[] = {0, max_seq / 2, max_seq, max_seq + 1};
    for (Pc pc = 0; pc < 12; ++pc) {
        for (const SeqNum after : afters) {
            gen.generate(rob, sq, pc, after);
            const int match = rob.findOldestByPc(pc, after);
            ASSERT_EQ(gen.matchSlot(), match)
                << "pc " << pc << " after " << after << " step " << step;
            // The register CAM answers every consumer no younger than
            // the match: all the producer walk can ask about.
            const SeqNum limit =
                match < 0 ? kNoSeqNum : rob.slot(match).seq;
            for (ArchReg reg = 0; reg < 8; ++reg) {
                for (const SeqNum before : befores) {
                    if (before > limit)
                        continue;
                    ASSERT_EQ(gen.findProducer(reg, before),
                              rob.findProducer(reg, before))
                        << "reg " << reg << " before " << before
                        << " pc " << pc << " after " << after
                        << " step " << step;
                }
            }
            ASSERT_NO_THROW(checker.checkRobIndexes(gen, pc, after))
                << "pc " << pc << " after " << after << " step " << step;
        }
    }
}

TEST(RobIndex, RandomizedInsertRetireSquashDifferential)
{
    Rng rng(0x5eed);
    Rob rob(32);
    SeqNum next_seq = 1;

    const auto push_random = [&] {
        // Small PC / register alphabets force heavy key collisions, the
        // regime where a broken lookup would first diverge from a scan.
        const Pc pc = rng.next() % 10;
        Opcode op = Opcode::kIntAlu;
        ArchReg dest = ArchReg(rng.next() % 8);
        switch (rng.next() % 8) {
          case 0:
            op = Opcode::kBranch;
            dest = kNoArchReg;
            break;
          case 1:
            op = Opcode::kLoad;
            break;
          case 2:
            dest = kNoArchReg;
            break;
          default:
            break;
        }
        const ArchReg src1 = ArchReg(rng.next() % 8);
        const ArchReg src2 =
            rng.next() % 3 == 0 ? kNoArchReg : ArchReg(rng.next() % 8);
        rob.push(makeUop(next_seq++, pc, op, dest, src1, src2));
    };

    for (std::uint64_t step = 0; step < 3000; ++step) {
        const std::uint64_t roll = rng.next() % 100;
        if (roll < 45) {
            if (!rob.full())
                push_random();
        } else if (roll < 70) {
            if (!rob.empty())
                rob.popHead();
        } else if (roll < 85) {
            if (!rob.empty())
                rob.popTail();
        } else if (roll < 97) {
            // Squash to a checkpoint: pop the tail back to a random
            // retained size, exactly what Core::squashYoungerThan and
            // runahead-exit restoration do.
            const int keep =
                rob.empty() ? 0 : int(rng.next() % (rob.size() + 1));
            while (rob.size() > keep)
                rob.popTail();
        } else {
            rob.clear();
        }
        expectLookupsMatchScans(rob, next_seq, step);
    }
    // The walk must have exercised a full window at least once.
    EXPECT_GT(next_seq, 500u);
}

TEST(RobIndex, LookupSpansOnlyThePrefixBeforeTheMatch)
{
    // Loop body r1 <- r1 at pcs 3, 4 repeated: the PC CAM pass for the
    // head's pc stops one body on, and the register CAM then answers
    // every consumer up to that match exactly.
    Rob rob(16);
    SeqNum seq = 1;
    for (int i = 0; i < 4; ++i) {
        rob.push(makeUop(seq++, 3, Opcode::kLoad, 1, 1, kNoArchReg));
        rob.push(makeUop(seq++, 4, Opcode::kIntAlu, 2, 1, 2));
    }
    StoreQueue sq(8);
    ChainGenerator gen(ChainGeneratorConfig{});
    const ChainResult result = gen.generate(rob, sq, 3, 1);
    ASSERT_TRUE(result.pcFound);
    EXPECT_EQ(gen.matchSlot(), rob.findOldestByPc(3, 1));
    EXPECT_EQ(rob.slot(gen.matchSlot()).seq, 3u);
    for (SeqNum before = 0; before <= 3; ++before) {
        for (ArchReg reg = 0; reg < 4; ++reg) {
            EXPECT_EQ(gen.findProducer(reg, before),
                      rob.findProducer(reg, before))
                << "reg " << reg << " before " << before;
        }
    }
    // The chain: the match's r1 producer (the head load) and the match.
    EXPECT_EQ(result.chain.size(), 2u);

    // An absent PC: the pass spans the window, so every query agrees.
    gen.generate(rob, sq, 9, 0);
    EXPECT_EQ(gen.matchSlot(), -1);
    for (ArchReg reg = 0; reg < 4; ++reg)
        EXPECT_EQ(gen.findProducer(reg, kNoSeqNum),
                  rob.findProducer(reg, kNoSeqNum));
}

// --------------------------------------------------------------------
// Layer 2: whole simulations, cross-checked at every generation
// --------------------------------------------------------------------

constexpr RunaheadConfig kAllConfigs[] = {
    RunaheadConfig::kBaseline,         RunaheadConfig::kRunahead,
    RunaheadConfig::kRunaheadEnhanced, RunaheadConfig::kRunaheadBuffer,
    RunaheadConfig::kRunaheadBufferCC, RunaheadConfig::kHybrid,
    RunaheadConfig::kCRE,              RunaheadConfig::kCREHybrid,
};

/** Chain generations in one full-check run (each one cross-checked). */
std::uint64_t
generationsChecked(RunaheadConfig rc, bool faulted)
{
    SimConfig config = makeConfig(rc, /*prefetch=*/false);
    config.warmupInstructions = 2'000;
    config.instructions = 15'000;
    config.checkLevel = CheckLevel::kFull;
    if (faulted) {
        // Speculative-only faults with violations routed to the
        // degradation ladder: chain generation keeps running against a
        // ROB whose contents the injector perturbs indirectly. ROB
        // violations still throw under this policy.
        config.checkPolicy = CheckPolicy::kDegrade;
        config.fault.enabled = true;
        config.fault.seed = 7;
        config.fault.chainCacheRate = 0.1;
        config.fault.bufferUopRate = 0.1;
    }
    config.finalize();

    Simulation sim(config, buildSuiteWorkload("mcf"));
    sim.run();
    const auto stats = sim.core().stats().collect();
    const auto it = stats.find("core.runahead.chain_gen.attempts");
    return it == stats.end() ? 0 : static_cast<std::uint64_t>(it->second);
}

TEST(RobIndex, AllConfigsCrossCheckEveryGeneration)
{
    std::uint64_t generations = 0;
    for (const RunaheadConfig rc : kAllConfigs) {
        EXPECT_NO_THROW(generations += generationsChecked(rc, false))
            << runaheadConfigName(rc);
    }
    EXPECT_GT(generations, 0u);
}

TEST(RobIndex, AllConfigsCrossCheckEveryGenerationUnderFaults)
{
    std::uint64_t generations = 0;
    for (const RunaheadConfig rc : kAllConfigs) {
        EXPECT_NO_THROW(generations += generationsChecked(rc, true))
            << runaheadConfigName(rc);
    }
    EXPECT_GT(generations, 0u);
}

} // namespace
} // namespace rab
