#include "runahead/chain_microbench.hh"

#include <algorithm>
#include <chrono>
#include <vector>

#include "backend/lsq.hh"
#include "backend/rob.hh"
#include "runahead/chain_generator.hh"

namespace rab
{

namespace
{

/** Fill @p rob to capacity with a pointer-chasing loop body — the
 *  workload shape runahead targets: a load feeding address arithmetic
 *  feeding the next load, repeated PCs, a spill store, and a loop
 *  branch. */
void
fillRob(Rob &rob, SeqNum &next_seq)
{
    struct BodyUop
    {
        Pc pc;
        Opcode op;
        ArchReg dest, src1, src2;
    };
    static const BodyUop body[] = {
        {100, Opcode::kLoad, 1, 1, kNoArchReg},   // p = *p
        {101, Opcode::kIntAlu, 2, 1, 2},          // index math
        {102, Opcode::kIntAlu, 3, 2, kNoArchReg}, // address math
        {103, Opcode::kLoad, 4, 3, kNoArchReg},   // dependent load
        {104, Opcode::kIntAlu, 5, 4, 5},          // accumulate
        {105, Opcode::kStore, kNoArchReg, 3, 5},  // spill
        {106, Opcode::kIntAlu, 6, 6, kNoArchReg}, // induction
        {107, Opcode::kBranch, kNoArchReg, 6, kNoArchReg},
    };
    while (!rob.full()) {
        for (const BodyUop &b : body) {
            if (rob.full())
                break;
            DynUop u;
            u.seq = next_seq++;
            u.pc = b.pc;
            u.sop.op = b.op;
            u.sop.dest = b.dest;
            u.sop.src1 = b.src1;
            u.sop.src2 = b.src2;
            rob.push(std::move(u));
        }
    }
}

ChainGenLatencyDist
distribution(std::vector<double> &samples)
{
    ChainGenLatencyDist d;
    if (samples.empty())
        return d;
    std::sort(samples.begin(), samples.end());
    const auto at = [&](double q) {
        const std::size_t i = static_cast<std::size_t>(
            q * static_cast<double>(samples.size() - 1));
        return samples[i];
    };
    d.calls = samples.size();
    d.minNs = samples.front();
    d.p50Ns = at(0.50);
    d.p90Ns = at(0.90);
    d.p99Ns = at(0.99);
    d.maxNs = samples.back();
    double sum = 0;
    for (const double s : samples)
        sum += s;
    d.meanNs = sum / static_cast<double>(samples.size());
    return d;
}

ChainGenLatencyDist
timeCase(const Rob &rob, const StoreQueue &sq, Pc blocking_pc,
         int iterations, int *chain_length)
{
    ChainGenerator gen(ChainGeneratorConfig{});
    std::vector<double> samples;
    samples.reserve(iterations);
    // The blocking load is the ROB head (seq 1), the paper's entry
    // condition.
    for (int i = 0; i < iterations; ++i) {
        // rablint: nondeterminism-ok (host wall-time measurement of
        // the generator microbench; reported, never fed back into
        // simulated state)
        const auto start = std::chrono::steady_clock::now();
        const ChainResult result = gen.generate(rob, sq, blocking_pc, 1);
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                // rablint: nondeterminism-ok (same measurement)
                std::chrono::steady_clock::now() - start)
                .count();
        samples.push_back(static_cast<double>(ns));
        if (chain_length)
            *chain_length = static_cast<int>(result.chain.size());
    }
    return distribution(samples);
}

} // namespace

ChainGenMicrobench
runChainGenMicrobench(int rob_entries, int iterations)
{
    Rob rob(rob_entries);
    StoreQueue sq(48);
    SeqNum next_seq = 1;
    fillRob(rob, next_seq);

    // pc 100 heads every loop body; pc 99 is in none.
    constexpr Pc kBodyPc = 100;
    constexpr Pc kAbsentPc = 99;
    ChainGenMicrobench result;
    result.robEntries = rob_entries;
    // Warm both cases (scratch capacity, branch predictors) before
    // timing.
    const int warm = std::max(8, iterations / 16);
    timeCase(rob, sq, kBodyPc, warm, nullptr);
    timeCase(rob, sq, kAbsentPc, warm, nullptr);
    result.match =
        timeCase(rob, sq, kBodyPc, iterations, &result.chainLength);
    result.noMatch = timeCase(rob, sq, kAbsentPc, iterations, nullptr);
    return result;
}

Json
chainGenMicrobenchJson(const ChainGenMicrobench &result)
{
    const auto dist_json = [](const ChainGenLatencyDist &d) {
        Json j = Json::object();
        j["calls"] = static_cast<double>(d.calls);
        j["min_ns"] = d.minNs;
        j["p50_ns"] = d.p50Ns;
        j["p90_ns"] = d.p90Ns;
        j["p99_ns"] = d.p99Ns;
        j["max_ns"] = d.maxNs;
        j["mean_ns"] = d.meanNs;
        return j;
    };
    Json j = Json::object();
    j["rob_entries"] = static_cast<double>(result.robEntries);
    j["chain_length"] = static_cast<double>(result.chainLength);
    j["match"] = dist_json(result.match);
    j["no_match"] = dist_json(result.noMatch);
    return j;
}

} // namespace rab
