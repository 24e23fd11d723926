/**
 * @file
 * google-benchmark microbenchmarks for the substrate primitives: cache
 * tag access, DRAM scheduling, branch prediction, chain generation and
 * whole-core simulation throughput.
 */

#include <benchmark/benchmark.h>

#include <iterator>

#include "backend/core.hh"
#include "backend/lsq.hh"
#include "backend/rob.hh"
#include "common/rng.hh"
#include "core/simulation.hh"
#include "frontend/branch_predictor.hh"
#include "memory/cache.hh"
#include "memory/dram.hh"
#include "runahead/chain_generator.hh"
#include "workloads/suite.hh"

namespace
{

void
BM_CacheAccess(benchmark::State &state)
{
    rab::Cache cache(rab::CacheConfig{"bench", 1024 * 1024, 8, 64, 18});
    rab::Rng rng(7);
    for (auto _ : state) {
        const rab::Addr addr = rng.range(16u << 20);
        benchmark::DoNotOptimize(cache.access(addr, false).hit);
        if (!cache.probe(addr))
            cache.insert(addr, false);
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_DramSchedule(benchmark::State &state)
{
    rab::Dram dram{rab::DramConfig{}};
    rab::Rng rng(11);
    rab::Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dram.access(rng.range(1u << 30) & ~63ull, now, false));
        now += 5;
    }
}
BENCHMARK(BM_DramSchedule);

void
BM_BranchPredict(benchmark::State &state)
{
    rab::BranchPredictor bp{rab::BranchPredictorConfig{}};
    rab::Rng rng(13);
    for (auto _ : state) {
        const rab::Pc pc = rng.range(512);
        const auto pred = bp.predictBranch(pc);
        bp.update(pc, rng.chance(0.6), pc + 7, pred.taken);
    }
}
BENCHMARK(BM_BranchPredict);

void
BM_ChainGenerate(benchmark::State &state)
{
    // Algorithm 1 over a full Table 1 ROB of one pointer-chasing loop
    // body: a load feeding address math feeding the next load, a
    // spill store and the loop branch. Arg(1): the blocking PC's next
    // instance is one body behind the head; Arg(0): the PC is absent,
    // so the PC CAM pass spans every entry.
    struct BodyUop
    {
        rab::Pc pc;
        rab::Opcode op;
        rab::ArchReg dest, src1, src2;
    };
    static const BodyUop kBody[] = {
        {100, rab::Opcode::kLoad, 1, 1, rab::kNoArchReg},
        {101, rab::Opcode::kIntAlu, 2, 1, 2},
        {102, rab::Opcode::kIntAlu, 3, 2, rab::kNoArchReg},
        {103, rab::Opcode::kLoad, 4, 3, rab::kNoArchReg},
        {104, rab::Opcode::kIntAlu, 5, 4, 5},
        {105, rab::Opcode::kStore, rab::kNoArchReg, 3, 5},
        {106, rab::Opcode::kIntAlu, 6, 6, rab::kNoArchReg},
        {107, rab::Opcode::kBranch, rab::kNoArchReg, 6, rab::kNoArchReg},
    };
    rab::Rob rob(192);
    for (rab::SeqNum seq = 1; !rob.full(); ++seq) {
        const BodyUop &b = kBody[(seq - 1) % std::size(kBody)];
        rab::DynUop u;
        u.seq = seq;
        u.pc = b.pc;
        u.sop.op = b.op;
        u.sop.dest = b.dest;
        u.sop.src1 = b.src1;
        u.sop.src2 = b.src2;
        rob.push(std::move(u));
    }
    const rab::StoreQueue sq(48);
    rab::ChainGenerator gen{rab::ChainGeneratorConfig{}};
    const rab::Pc blocking_pc = state.range(0) ? 100 : 99;
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.generate(rob, sq, blocking_pc, 1));
}
BENCHMARK(BM_ChainGenerate)->Arg(1)->Arg(0);

void
BM_CoreSimulation(benchmark::State &state)
{
    // Whole-core throughput in simulated instructions per second.
    for (auto _ : state) {
        rab::SimConfig config =
            rab::makeConfig(rab::RunaheadConfig::kHybrid, false);
        config.warmupInstructions = 0;
        config.instructions = 5000;
        rab::Simulation sim(config, rab::buildSuiteWorkload("mcf"));
        benchmark::DoNotOptimize(sim.run().cycles);
    }
    state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_CoreSimulation);

} // namespace

BENCHMARK_MAIN();
