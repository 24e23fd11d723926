/**
 * @file
 * Unit tests: the Figs. 3-5 chain-analysis instrumentation, and a
 * randomized differential of its flat, lazily ordered history against
 * a reference model built on ordered maps and hash sets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "isa/functional.hh"
#include "runahead/chain_analysis.hh"

namespace rab
{
namespace
{

DynUop
mk(SeqNum seq, Pc pc, ArchReg dest, ArchReg src1 = kNoArchReg,
   ArchReg src2 = kNoArchReg, bool load = false)
{
    DynUop u;
    u.seq = seq;
    u.pc = pc;
    u.sop.op = load ? Opcode::kLoad : Opcode::kIntAlu;
    u.sop.dest = dest;
    u.sop.src1 = src1;
    u.sop.src2 = src2;
    return u;
}

/** Record one gather iteration: addi(1), mix(2<-1), add(3<-2),
 *  load(4<-[3]), filler(20). Returns the load. */
DynUop
recordIteration(ChainAnalysis &ca, SeqNum base)
{
    ca.recordExec(mk(base + 0, 0, 1, 1));
    ca.recordExec(mk(base + 1, 1, 2, 1));
    ca.recordExec(mk(base + 2, 2, 3, 10, 2));
    const DynUop load = mk(base + 3, 3, 4, 3, kNoArchReg, true);
    ca.recordExec(load);
    ca.recordExec(mk(base + 4, 4, 20, 20, 4));
    return load;
}

TEST(ChainAnalysis, SliceLengthIsStaticChain)
{
    ChainAnalysis ca;
    ca.beginInterval();
    recordIteration(ca, 10);
    const DynUop miss = recordIteration(ca, 20);
    ca.recordMiss(miss);
    ca.endInterval();
    // Static slice: load, add, mix, addi = 4 distinct PCs (the older
    // iteration's addi dedups by PC).
    EXPECT_EQ(ca.chainsMeasured.value(), 1u);
    EXPECT_EQ(ca.chainLengthSum.value(), 4u);
}

TEST(ChainAnalysis, IdenticalChainsCountAsRepeated)
{
    ChainAnalysis ca;
    ca.beginInterval();
    for (int i = 0; i < 5; ++i) {
        const DynUop miss = recordIteration(ca, 10 + i * 10);
        ca.recordMiss(miss);
    }
    ca.endInterval();
    EXPECT_EQ(ca.chainsTotal.value(), 5u);
    EXPECT_EQ(ca.chainsRepeated.value(), 4u); // first is "unique"
}

TEST(ChainAnalysis, DifferentChainsAreUnique)
{
    ChainAnalysis ca;
    ca.beginInterval();
    const DynUop m1 = recordIteration(ca, 10);
    ca.recordMiss(m1);
    // A structurally different miss: load whose address comes straight
    // from the induction.
    ca.recordExec(mk(31, 7, 5, 1));
    const DynUop m2 = mk(32, 8, 6, 5, kNoArchReg, true);
    ca.recordExec(m2);
    ca.recordMiss(m2);
    ca.endInterval();
    EXPECT_EQ(ca.chainsTotal.value(), 2u);
    EXPECT_EQ(ca.chainsRepeated.value(), 0u);
}

TEST(ChainAnalysis, NecessaryFractionCountsChainOps)
{
    ChainAnalysis ca;
    ca.beginInterval();
    const DynUop miss = recordIteration(ca, 10); // 5 executed ops
    ca.recordMiss(miss);
    ca.endInterval();
    // addi, mix, add, load are necessary; the filler is not.
    EXPECT_EQ(ca.opsExecuted.value(), 5u);
    EXPECT_EQ(ca.opsNecessary.value(), 4u);
}

TEST(ChainAnalysis, IntervalsAreIndependent)
{
    ChainAnalysis ca;
    ca.beginInterval();
    ca.recordMiss(recordIteration(ca, 10));
    ca.endInterval();
    ca.beginInterval();
    ca.recordMiss(recordIteration(ca, 50));
    ca.endInterval();
    // The same chain in a *new* interval counts as unique again.
    EXPECT_EQ(ca.chainsTotal.value(), 2u);
    EXPECT_EQ(ca.chainsRepeated.value(), 0u);
}

TEST(ChainAnalysis, IgnoresRecordsOutsideIntervals)
{
    ChainAnalysis ca;
    const DynUop miss = recordIteration(ca, 10); // no beginInterval
    ca.recordMiss(miss);
    ca.endInterval();
    EXPECT_EQ(ca.opsExecuted.value(), 0u);
    EXPECT_EQ(ca.chainsTotal.value(), 0u);
}

TEST(ChainAnalysis, OutOfOrderRecordingStillWalksProgramOrder)
{
    // Writeback order differs from program order; the walk must not.
    ChainAnalysis ca;
    ca.beginInterval();
    ca.recordExec(mk(12, 2, 3, 10, 2));    // add completes first
    ca.recordExec(mk(10, 0, 1, 1));        // addi later
    ca.recordExec(mk(11, 1, 2, 1));        // mix last
    const DynUop miss = mk(13, 3, 4, 3, kNoArchReg, true);
    ca.recordExec(miss);
    ca.recordMiss(miss);
    ca.endInterval();
    EXPECT_EQ(ca.chainsMeasured.value(), 1u);
    EXPECT_EQ(ca.chainLengthSum.value(), 4u);
}

// --------------------------------------------------------------------
// Randomized differential against the reference model
// --------------------------------------------------------------------

/** The chain analyser written directly from its definition: the
 *  history an ordered map from seq (emplace keeps the first record of
 *  a seq, the smallest seq is evicted past the window), the slice's
 *  registers and the interval's necessary seqs and signatures hash
 *  sets. */
class ReferenceChainAnalysis
{
  public:
    ReferenceChainAnalysis(int window, int max_chain)
        : window_(window), maxChain_(max_chain)
    {
    }

    void
    beginInterval()
    {
        inInterval_ = true;
        clear();
    }

    void
    recordExec(const DynUop &uop)
    {
        if (!inInterval_)
            return;
        ++intervalExecuted_;
        history_.emplace(uop.seq, Rec{uop.pc, uop.sop.dest, uop.sop.src1,
                                      uop.sop.src2});
        if (static_cast<int>(history_.size()) > window_)
            history_.erase(history_.begin());
    }

    void
    recordMiss(const DynUop &uop)
    {
        if (!inInterval_)
            return;
        std::unordered_set<int> needed;
        if (uop.sop.src1 != kNoArchReg)
            needed.insert(uop.sop.src1);
        if (uop.sop.src2 != kNoArchReg)
            needed.insert(uop.sop.src2);
        std::vector<Pc> slice_pcs{uop.pc};
        necessary_.insert(uop.seq);
        auto it = history_.lower_bound(uop.seq);
        while (it != history_.begin() && !needed.empty()
               && static_cast<int>(slice_pcs.size()) < maxChain_) {
            --it;
            const Rec &rec = it->second;
            if (rec.dest == kNoArchReg || !needed.count(rec.dest))
                continue;
            needed.erase(rec.dest);
            necessary_.insert(it->first);
            if (std::find(slice_pcs.begin(), slice_pcs.end(), rec.pc)
                != slice_pcs.end()) {
                continue;
            }
            if (rec.src1 != kNoArchReg)
                needed.insert(rec.src1);
            if (rec.src2 != kNoArchReg)
                needed.insert(rec.src2);
            slice_pcs.push_back(rec.pc);
        }
        std::sort(slice_pcs.begin(), slice_pcs.end());
        std::uint64_t sig = 0x452821e638d01377ull;
        for (const Pc pc : slice_pcs)
            sig = mix64(sig ^ pc);
        ++chainsTotal;
        if (!signatures_.insert(sig).second)
            ++chainsRepeated;
        chainLengthSum += slice_pcs.size();
        ++chainsMeasured;
    }

    void
    endInterval()
    {
        if (!inInterval_)
            return;
        opsExecuted += intervalExecuted_;
        opsNecessary += necessary_.size();
        inInterval_ = false;
        clear();
    }

    std::uint64_t opsExecuted = 0;
    std::uint64_t opsNecessary = 0;
    std::uint64_t chainsTotal = 0;
    std::uint64_t chainsRepeated = 0;
    std::uint64_t chainLengthSum = 0;
    std::uint64_t chainsMeasured = 0;

  private:
    struct Rec
    {
        Pc pc;
        ArchReg dest;
        ArchReg src1;
        ArchReg src2;
    };

    void
    clear()
    {
        history_.clear();
        signatures_.clear();
        necessary_.clear();
        intervalExecuted_ = 0;
    }

    int window_;
    int maxChain_;
    bool inInterval_ = false;
    std::map<SeqNum, Rec> history_;
    std::unordered_set<std::uint64_t> signatures_;
    std::unordered_set<SeqNum> necessary_;
    std::uint64_t intervalExecuted_ = 0;
};

void
expectSameCounters(const ChainAnalysis &ca,
                   const ReferenceChainAnalysis &ref, int interval)
{
    EXPECT_EQ(ca.opsExecuted.value(), ref.opsExecuted)
        << "interval " << interval;
    EXPECT_EQ(ca.opsNecessary.value(), ref.opsNecessary)
        << "interval " << interval;
    EXPECT_EQ(ca.chainsTotal.value(), ref.chainsTotal)
        << "interval " << interval;
    EXPECT_EQ(ca.chainsRepeated.value(), ref.chainsRepeated)
        << "interval " << interval;
    EXPECT_EQ(ca.chainLengthSum.value(), ref.chainLengthSum)
        << "interval " << interval;
    EXPECT_EQ(ca.chainsMeasured.value(), ref.chainsMeasured)
        << "interval " << interval;
}

/**
 * Feed both models the same random record streams: program-order seqs
 * with squash gaps, written back out of order (locally shuffled, a few
 * records held back past the whole window), repeated seqs carrying
 * different records, misses after their own record and a few carrying
 * another seq's, more records per interval than the window holds, source
 * registers no record writes (so slices walk off the window), records
 * outside intervals, and intervals restarted without an end.
 */
void
runDifferential(int window, int max_chain, std::uint64_t seed)
{
    ChainAnalysis ca(window, max_chain);
    ReferenceChainAnalysis ref(window, max_chain);
    Rng rng(seed);
    SeqNum next_seq = 1;

    const auto both_exec = [&](const DynUop &u) {
        ca.recordExec(u);
        ref.recordExec(u);
    };
    const auto both_miss = [&](const DynUop &u) {
        ca.recordMiss(u);
        ref.recordMiss(u);
    };
    const auto random_uop = [&](SeqNum seq) {
        // Destinations in r0-r15, sources in r0-r19: r16-r19 are live
        // into every interval.
        DynUop u;
        u.seq = seq;
        u.pc = rng.range(48);
        u.sop.op = rng.range(4) == 0 ? Opcode::kLoad : Opcode::kIntAlu;
        u.sop.dest =
            rng.range(6) == 0 ? kNoArchReg : ArchReg(rng.range(16));
        u.sop.src1 =
            rng.range(8) == 0 ? kNoArchReg : ArchReg(rng.range(20));
        u.sop.src2 =
            rng.range(3) == 0 ? kNoArchReg : ArchReg(rng.range(20));
        return u;
    };

    for (int interval = 0; interval < 12; ++interval) {
        // Stray records between intervals must be ignored.
        both_exec(random_uop(next_seq));
        both_miss(random_uop(next_seq++));

        ca.beginInterval();
        ref.beginInterval();
        const auto held = static_cast<std::uint64_t>(window);
        const std::uint64_t records = rng.range(3) == 0
            ? 50 + rng.range(200)
            : 2 * held + rng.range(2 * held + 1);

        // Program order with squash gaps, then a local shuffle.
        std::vector<DynUop> stream;
        stream.reserve(records);
        for (std::uint64_t i = 0; i < records; ++i) {
            if (rng.range(10) == 0)
                next_seq += 1 + rng.range(40); // squashed, never written
            stream.push_back(random_uop(next_seq++));
        }
        for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
            const std::size_t span =
                std::min<std::size_t>(24, stream.size() - i);
            std::swap(stream[i], stream[i + rng.range(span)]);
        }
        // A few records written back far later than program order.
        for (int k = 0; k < 3 && stream.size() > 2; ++k) {
            const auto from = static_cast<std::ptrdiff_t>(
                rng.range(stream.size() / 2));
            std::rotate(stream.begin() + from, stream.begin() + from + 1,
                        stream.end());
        }

        std::vector<SeqNum> written;
        written.reserve(stream.size());
        for (const DynUop &u : stream) {
            both_exec(u);
            written.push_back(u.seq);
            const std::uint64_t roll = rng.range(100);
            if (roll < 3) {
                // A repeated seq with a different record.
                both_exec(random_uop(written[rng.range(written.size())]));
            } else if (roll < 5) {
                // A miss carrying some other record of the interval,
                // written back already or not yet.
                both_miss(random_uop(stream[rng.range(stream.size())].seq));
            }
            if (u.sop.op == Opcode::kLoad && rng.range(3) == 0)
                both_miss(u);
        }
        // Usually end the interval, sometimes twice (the second end is
        // ignored), sometimes not at all (the next begin discards it).
        const std::uint64_t roll = rng.range(8);
        const int ends = roll == 0 ? 0 : roll == 1 ? 2 : 1;
        for (int e = 0; e < ends; ++e) {
            ca.endInterval();
            ref.endInterval();
        }
        expectSameCounters(ca, ref, interval);
    }
    EXPECT_GT(ref.chainsRepeated, 0u);
    EXPECT_GT(ref.opsNecessary, 0u);
}

TEST(ChainAnalysis, FlatWindowMatchesReferenceModel)
{
    runDifferential(4096, 64, 0xC4A1);
}

TEST(ChainAnalysis, FlatWindowMatchesReferenceModelSmallWindow)
{
    // A small window and chain cap: trimming, compaction and slices
    // falling off the window on nearly every miss.
    runDifferential(64, 8, 0x5EED);
    runDifferential(1, 4, 0xBEEF);
    runDifferential(0, 64, 0xF00D);
}

} // namespace
} // namespace rab
