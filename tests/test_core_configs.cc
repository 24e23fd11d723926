/**
 * @file
 * Property tests: architectural correctness must hold across the
 * microarchitectural design space. Every (ROB size, width, RS size,
 * memory queue, runahead config) point must commit exactly the
 * reference instruction stream — timing changes, results never do.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/simulation.hh"
#include "reference_interpreter.hh"
#include "workloads/suite.hh"

namespace rab
{
namespace
{

using test::RefCommit;
using test::ReferenceInterpreter;

Program
mixedProgram()
{
    // Branchy + memory-heavy + store/load forwarding in one kernel.
    ProgramBuilder b("mixed");
    b.initReg(1, 0);
    b.initReg(10, 0x20000000);
    b.initReg(11, 0x100000);
    auto loop = b.label();
    b.addi(1, 1, 1);
    b.mix(2, 1, 1, 3);
    b.alu(AluFunc::kAnd, 3, 2, kNoArchReg, (16ull << 20) - 8);
    b.add(3, 10, 3);
    b.load(4, 3, 0);
    b.alu(AluFunc::kAnd, 5, 1, kNoArchReg, 0xff8);
    b.add(5, 11, 5);
    b.store(5, 2, 0);
    b.load(6, 5, 0);
    auto skip = b.futureLabel();
    b.alu(AluFunc::kAnd, 7, 4, kNoArchReg, 1);
    b.branch(BranchCond::kNeZ, 7, kNoArchReg, skip);
    b.mix(8, 8, 6, 7);
    b.mul(9, 8, 2);
    b.bind(skip);
    b.fpAlu(12, 12, 4);
    b.jump(loop);
    return b.build();
}

/** (robEntries, width, rsEntries, memQueue, runahead config) */
using ConfigPoint = std::tuple<int, int, int, int, RunaheadConfig>;

class CoreConfigSweep : public ::testing::TestWithParam<ConfigPoint>
{
};

TEST_P(CoreConfigSweep, CommitsReferenceStream)
{
    const auto [rob, width, rs, mem_queue, rc] = GetParam();
    const Program program = mixedProgram();
    constexpr std::uint64_t kInstructions = 1500;

    ReferenceInterpreter interp(program);
    const auto ref = interp.run(kInstructions);

    SimConfig config = makeConfig(rc, false);
    config.warmupInstructions = 0;
    config.instructions = kInstructions;
    config.core.robEntries = rob;
    config.core.frontend.fetchWidth = width;
    config.core.renameWidth = width;
    config.core.issueWidth = width;
    config.core.commitWidth = width;
    config.core.rsEntries = rs;
    config.mem.memQueueEntries = mem_queue;
    config.mem.runaheadQueueReserve = mem_queue / 4;

    Simulation sim(config, program);
    std::vector<RefCommit> trace;
    sim.core().setCommitHook([&](const DynUop &uop) {
        RefCommit c;
        c.pc = uop.pc;
        c.result = uop.sop.hasDest() || uop.isStore() ? uop.result : 0;
        c.addr = uop.sop.isMem() ? uop.effAddr : kNoAddr;
        c.taken = uop.isControl() && uop.actualTaken;
        trace.push_back(c);
    });
    sim.run();
    trace.resize(std::min<std::size_t>(trace.size(), kInstructions));

    ASSERT_EQ(trace.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i].pc, trace[i].pc) << "uop " << i;
        ASSERT_EQ(ref[i].result, trace[i].result) << "uop " << i;
        ASSERT_EQ(ref[i].addr, trace[i].addr) << "uop " << i;
        ASSERT_EQ(ref[i].taken, trace[i].taken) << "uop " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, CoreConfigSweep,
    ::testing::Values(
        // Narrow / small-window machines.
        ConfigPoint{32, 1, 16, 8, RunaheadConfig::kBaseline},
        ConfigPoint{32, 1, 16, 8, RunaheadConfig::kHybrid},
        ConfigPoint{64, 2, 32, 16, RunaheadConfig::kRunahead},
        ConfigPoint{64, 2, 32, 16, RunaheadConfig::kRunaheadBufferCC},
        // The Table 1 machine.
        ConfigPoint{192, 4, 92, 64, RunaheadConfig::kBaseline},
        ConfigPoint{192, 4, 92, 64, RunaheadConfig::kRunahead},
        ConfigPoint{192, 4, 92, 64, RunaheadConfig::kRunaheadBuffer},
        ConfigPoint{192, 4, 92, 64, RunaheadConfig::kRunaheadBufferCC},
        ConfigPoint{192, 4, 92, 64, RunaheadConfig::kHybrid},
        ConfigPoint{192, 4, 92, 64, RunaheadConfig::kRunaheadEnhanced},
        // Wide / future machines.
        ConfigPoint{384, 8, 128, 128, RunaheadConfig::kBaseline},
        ConfigPoint{384, 8, 128, 128, RunaheadConfig::kHybrid},
        // Tiny memory queue (heavy rejection/retry paths).
        ConfigPoint{192, 4, 92, 4, RunaheadConfig::kHybrid},
        ConfigPoint{192, 4, 92, 4, RunaheadConfig::kRunahead}));

/** Timing sanity across the sweep: bigger windows never hurt IPC on
 *  this memory-bound kernel. */
TEST(CoreConfigScaling, LargerRobHelpsMemoryBoundCode)
{
    const Program program = mixedProgram();
    double last_ipc = 0.0;
    for (const int rob : {16, 64, 192}) {
        SimConfig config = makeConfig(RunaheadConfig::kBaseline, false);
        config.warmupInstructions = 1'000;
        config.instructions = 10'000;
        config.core.robEntries = rob;
        Simulation sim(config, program);
        const double ipc = sim.run().ipc;
        EXPECT_GE(ipc, last_ipc * 0.95)
            << "ROB " << rob << " slower than smaller window";
        last_ipc = ipc;
    }
}

TEST(CoreConfigScaling, WiderMachineHelpsComputeCode)
{
    WorkloadParams p;
    p.name = "compute";
    p.family = WorkloadFamily::kCompute;
    p.workingSetBytes = 4 * 1024;
    p.aluPerIter = 12;
    p.fpPerIter = 4;
    const Program program = buildWorkload(p);
    double ipc1 = 0;
    double ipc4 = 0;
    for (const int width : {1, 4}) {
        SimConfig config = makeConfig(RunaheadConfig::kBaseline, false);
        config.warmupInstructions = 1'000;
        config.instructions = 10'000;
        config.core.frontend.fetchWidth = width;
        config.core.renameWidth = width;
        config.core.issueWidth = width;
        config.core.commitWidth = width;
        Simulation sim(config, program);
        (width == 1 ? ipc1 : ipc4) = sim.run().ipc;
    }
    EXPECT_GT(ipc4, ipc1 * 1.5);
    EXPECT_LE(ipc1, 1.01);
}

} // namespace
} // namespace rab
