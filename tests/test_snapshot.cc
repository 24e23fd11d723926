/**
 * @file
 * Snapshot certification: capturing a simulation at the warmup
 * boundary and restoring it — in-process or through the CRC-framed
 * file format — must be invisible in every architectural and
 * statistical observable. For all six runahead configurations, and
 * again under speculative fault injection, a restore-resumed run must
 * produce a byte-identical commit stream, identical cycle count and an
 * identical full statistics payload (core, memory and faults) compared
 * to the straight-line run that never snapshotted.
 *
 * Also certifies the failure surface: truncated, bit-flipped,
 * wrong-magic and wrong-version files are rejected with the right
 * structured SnapshotErrorKind, and mode gates (config digest, workload
 * identity, fork safety) refuse mismatched restores instead of
 * silently diverging, and a campaign point whose image is corrupt or
 * cannot be built fails instead of warming inline.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "core/config_fields.hh"
#include "core/simulation.hh"
#include "reference_interpreter.hh"
#include "snapshot/snapshot.hh"
#include "sweep/campaign.hh"
#include "sweep/report.hh"
#include "sweep/store/result_store.hh"
#include "workloads/suite.hh"

namespace fs = std::filesystem;

namespace rab
{
namespace
{

using test::RefCommit;

constexpr RunaheadConfig kAllConfigs[] = {
    RunaheadConfig::kBaseline,         RunaheadConfig::kRunahead,
    RunaheadConfig::kRunaheadEnhanced, RunaheadConfig::kRunaheadBuffer,
    RunaheadConfig::kRunaheadBufferCC, RunaheadConfig::kHybrid,
};

SimConfig
makeTestConfig(RunaheadConfig rc, bool faulted)
{
    SimConfig config = makeConfig(rc, /*prefetch=*/false);
    config.warmupInstructions = 2'000;
    config.instructions = 15'000;
    config.checkLevel = CheckLevel::kFull;
    if (faulted) {
        config.checkPolicy = CheckPolicy::kDegrade;
        config.fault.enabled = true;
        config.fault.seed = 7;
        config.fault.chainCacheRate = 0.1;
        config.fault.bufferUopRate = 0.1;
    }
    config.finalize();
    return config;
}

/** Everything a differential pair compares. */
struct RunCapture
{
    std::vector<RefCommit> trace;
    std::map<std::string, double> stats;
    std::uint64_t cycles = 0;
    std::uint64_t llcLinesAtCapture = 0; ///< Snapshot arm only.
};

void
hookCommits(Simulation &sim, RunCapture &cap)
{
    sim.core().setCommitHook([&cap](const DynUop &uop) {
        RefCommit c;
        c.pc = uop.pc;
        c.result = uop.sop.hasDest() || uop.isStore() ? uop.result : 0;
        c.addr = uop.sop.isMem() ? uop.effAddr : kNoAddr;
        c.taken = uop.isControl() && uop.actualTaken;
        cap.trace.push_back(c);
    });
}

/** The measured region's whole payload: core, mem and, under
 *  injection, faults. */
void
collectStats(Simulation &sim, RunCapture &cap)
{
    cap.stats = sim.statPayload();
}

/** The reference arm: warmup and measured region in one simulation,
 *  commit hook armed for the measured region only. */
RunCapture
runStraight(const SimConfig &config)
{
    Simulation sim(config, buildSuiteWorkload("mcf"));
    sim.runWarmup();
    RunCapture cap;
    hookCommits(sim, cap);
    cap.cycles = sim.runMeasured().cycles;
    collectStats(sim, cap);
    return cap;
}

void
expectIdentical(const RunCapture &snap, const RunCapture &straight,
                RunaheadConfig rc)
{
    const char *name = runaheadConfigName(rc);
    ASSERT_EQ(snap.cycles, straight.cycles) << name;

    ASSERT_EQ(snap.trace.size(), straight.trace.size()) << name;
    for (std::size_t i = 0; i < snap.trace.size(); ++i) {
        ASSERT_EQ(snap.trace[i].pc, straight.trace[i].pc)
            << name << " uop " << i;
        ASSERT_EQ(snap.trace[i].result, straight.trace[i].result)
            << name << " uop " << i << " pc " << snap.trace[i].pc;
        ASSERT_EQ(snap.trace[i].addr, straight.trace[i].addr)
            << name << " uop " << i;
        ASSERT_EQ(snap.trace[i].taken, straight.trace[i].taken)
            << name << " uop " << i;
    }

    ASSERT_EQ(snap.stats.size(), straight.stats.size()) << name;
    for (const auto &[key, value] : straight.stats) {
        const auto it = snap.stats.find(key);
        ASSERT_TRUE(it != snap.stats.end())
            << name << " missing " << key;
        EXPECT_EQ(it->second, value) << name << " stat " << key;
    }
}

/** The snapshot arm: warmup in one simulation, capture, restore into a
 *  FRESH simulation, resume there. Also asserts the restored state
 *  re-captures to the byte-identical payload. */
RunCapture
runViaSnapshot(const SimConfig &config)
{
    std::string payload;
    RunCapture cap;
    {
        Simulation warm(config, buildSuiteWorkload("mcf"));
        warm.runWarmup();
        payload = captureSnapshot(warm);
        cap.llcLinesAtCapture = warm.memory().llc().occupancy();
    }

    Simulation sim(config, buildSuiteWorkload("mcf"));
    restoreSnapshot(sim, payload, SnapshotRestoreMode::kExact);
    // Round-trip fixpoint: restored state re-captures byte-identically.
    EXPECT_EQ(captureSnapshot(sim), payload);

    hookCommits(sim, cap);
    cap.cycles = sim.runMeasured().cycles;
    collectStats(sim, cap);
    return cap;
}

TEST(Snapshot, ExactRestoreMatchesStraightLineAllConfigs)
{
    for (const RunaheadConfig rc : kAllConfigs) {
        const SimConfig config = makeTestConfig(rc, false);
        expectIdentical(runViaSnapshot(config), runStraight(config),
                        rc);
    }
}

TEST(Snapshot, ExactRestoreMatchesStraightLineUnderFaults)
{
    for (const RunaheadConfig rc : kAllConfigs) {
        const SimConfig config = makeTestConfig(rc, true);
        expectIdentical(runViaSnapshot(config), runStraight(config),
                        rc);
    }
}

TEST(Snapshot, CaptureRefusesNonZeroCounters)
{
    // Images carry no stat counters, so an image is exact only where
    // every counter reads zero: after runWarmup() on the capture side
    // and in a fresh simulation on the restore side. A simulation that
    // has run must be refused on either side, never resumed inexactly.
    const SimConfig config = makeTestConfig(RunaheadConfig::kHybrid, true);
    const auto expect_mismatch = [](auto fn, const char *what) {
        try {
            fn();
            ADD_FAILURE() << what << " accepted";
        } catch (const SnapshotError &e) {
            EXPECT_EQ(e.kind(), SnapshotErrorKind::kMismatch)
                << what << ": " << snapshotErrorKindName(e.kind());
        }
    };

    Simulation ran(config, buildSuiteWorkload("mcf"));
    ran.run();
    expect_mismatch([&] { captureSnapshot(ran); }, "capture after run()");

    std::string payload;
    {
        Simulation warm(config, buildSuiteWorkload("mcf"));
        warm.runWarmup();
        payload = captureSnapshot(warm);
    }
    expect_mismatch(
        [&] {
            restoreSnapshot(ran, payload, SnapshotRestoreMode::kExact);
        },
        "restore into a simulation that has run");
}

TEST(Snapshot, ExactRestoreThroughLlcEvictionsAllConfigs)
{
    // The 2k-instruction warmups above leave the 1 MB LLC mostly
    // empty. A 64 KB LLC is full after this warmup, so every fill of
    // the resumed run evicts a victim chosen from restored LRU stamps
    // and back-invalidates its copies in the restored L1s.
    for (const RunaheadConfig rc : kAllConfigs) {
        SimConfig config = makeTestConfig(rc, false);
        config.warmupInstructions = 50'000;
        config.mem.llc.sizeBytes = 64 * 1024;
        const RunCapture snap = runViaSnapshot(config);
        EXPECT_EQ(snap.llcLinesAtCapture,
                  config.mem.llc.sizeBytes / config.mem.llc.lineBytes)
            << runaheadConfigName(rc);
        expectIdentical(snap, runStraight(config), rc);
    }
}

TEST(Snapshot, CorruptPayloadNeverCrashesRestore)
{
    // Flip one byte at a fixed stride through every section and
    // restore each copy into a fresh simulation. A copy may restore
    // (most bytes are plain values) or be rejected, but only ever with
    // SnapshotError: counts are checked against the bytes left, and
    // the cache and BTB indices and the ROB head and size against the
    // restoring simulation's geometry, so no corrupt payload writes
    // out of bounds (CI runs this under ASan+UBSan). The CRE config
    // under faults fills every section, and omnetpp leaves valid BTB
    // entries.
    SimConfig config = makeTestConfig(RunaheadConfig::kCRE, true);
    config.mem.llc.sizeBytes = 64 * 1024;
    const Program program = buildSuiteWorkload("omnetpp");
    std::string payload;
    {
        Simulation warm(config, program);
        warm.runWarmup();
        payload = captureSnapshot(warm);
    }

    // Payload header: 8-byte magic + u32 version; then sections of
    // u32 tag + u64 length + body.
    constexpr std::size_t kStride = 31;
    std::size_t sections = 0;
    std::size_t restored = 0;
    std::size_t rejected = 0;
    for (std::size_t begin = 12; begin < payload.size(); ++sections) {
        std::uint64_t len = 0;
        for (std::size_t b = 0; b < 8; ++b) {
            len |= std::uint64_t(std::uint8_t(payload[begin + 4 + b]))
                << (8 * b);
        }
        const std::size_t end = begin + 12 + len;
        ASSERT_LE(end, payload.size());
        for (std::size_t at = begin; at < end; at += kStride) {
            std::string corrupt = payload;
            corrupt[at] = static_cast<char>(corrupt[at] ^ 0xff);
            Simulation sim(config, program);
            try {
                restoreSnapshot(sim, corrupt, SnapshotRestoreMode::kExact);
                ++restored;
            } catch (const SnapshotError &) {
                ++rejected;
            }
        }
        begin = end;
    }
    EXPECT_EQ(sections, 6u);
    EXPECT_GT(restored, 0u);
    EXPECT_GT(rejected, 0u);
}

/** A baseline-warmup image and the ROB state it captured. */
struct RobImage
{
    std::string payload;
    int robHead = 0;
    int robSize = 0;
};

RobImage
captureRobImage(const SimConfig &config, const char *workload)
{
    Simulation warm(config, buildSuiteWorkload(workload));
    warm.runWarmup();
    RobImage image;
    image.payload = captureSnapshot(warm);
    // A baseline warmup never flushes the ROB, so its head slot is the
    // retired-uop count modulo the capacity; the checker's state dump
    // reads "..., rob <size>/<capacity>, ...".
    image.robHead =
        static_cast<int>(warm.core().retired() % config.core.robEntries);
    const std::string dump = warm.core().checker().stateDump();
    const std::size_t at = dump.find(", rob ");
    if (at != std::string::npos)
        image.robSize = std::stoi(dump.substr(at + 6));
    return image;
}

/** Restore @p image into a fresh @p small simulation after forging
 *  the image's config digest to match it; the error kind, if any. */
SnapshotErrorKind
restoreForged(const RobImage &image, const char *workload,
              const SimConfig &small)
{
    // META's body starts after the 12-byte payload header and the
    // 12-byte section header: u32 formatVersion, u64 configDigest.
    std::string forged = image.payload;
    const std::uint64_t digest = snapshotConfigDigest(small);
    for (std::size_t b = 0; b < 8; ++b)
        forged[28 + b] = static_cast<char>(digest >> (8 * b));
    Simulation sim(small, buildSuiteWorkload(workload));
    try {
        restoreSnapshot(sim, forged, SnapshotRestoreMode::kExact);
    } catch (const SnapshotError &e) {
        return e.kind();
    }
    ADD_FAILURE() << "image of a larger machine accepted";
    return SnapshotErrorKind::kIo;
}

TEST(Snapshot, SmallerTablesRejectLargerImage)
{
    // The decoders bound every restored index by the restoring
    // simulation's own geometry. An image of the default machine,
    // with its config digest forged to pass the identity gate of a
    // machine with a smaller BTB, LLC or ROB, must be refused as
    // kFormat before it writes past the smaller table. omnetpp's BTB
    // holds entries at indices 19, 38, 57 and 78 after this warmup.
    const SimConfig config =
        makeTestConfig(RunaheadConfig::kBaseline, false);
    const RobImage omnetpp = captureRobImage(config, "omnetpp");
    const RobImage mcf = captureRobImage(config, "mcf");

    SimConfig small = config;
    small.core.bp.btbEntries = 16;
    EXPECT_EQ(restoreForged(omnetpp, "omnetpp", small),
              SnapshotErrorKind::kFormat);
    small = config;
    small.mem.llc.sizeBytes = 64 * 1024;
    EXPECT_EQ(restoreForged(omnetpp, "omnetpp", small),
              SnapshotErrorKind::kFormat);

    // Only the ROB head out of range: the live entries fit the smaller
    // ROB, and the head lies at twice its capacity or beyond, so an
    // unchecked restore would write past the ring from the first
    // entry on.
    small = config;
    small.core.robEntries = omnetpp.robSize;
    ASSERT_GE(omnetpp.robSize, 1);
    ASSERT_GE(omnetpp.robHead, 2 * small.core.robEntries);
    EXPECT_EQ(restoreForged(omnetpp, "omnetpp", small),
              SnapshotErrorKind::kFormat);

    // Only the ROB size out of range: the head fits, and the live
    // entries run past twice the capacity, where a single wrap no
    // longer lands inside the ring.
    small = config;
    small.core.robEntries = mcf.robHead + 1;
    ASSERT_GE(mcf.robHead + mcf.robSize - 1, 2 * small.core.robEntries);
    EXPECT_EQ(restoreForged(mcf, "mcf", small),
              SnapshotErrorKind::kFormat);
}

TEST(Snapshot, SmallerRobRejectsDeadSlotReferences)
{
    // This hybrid image's ROB head and size fit a 96- and a 128-entry
    // ROB, but its reservation-station and store-queue entries name
    // slots of the 192-entry ring that the smaller ROB does not hold
    // live. The restore must refuse the image as kFormat instead of
    // leaving issue to read a dead slot.
    SimConfig config = makeConfig(RunaheadConfig::kHybrid, false);
    config.instructions = 20'000;
    config.warmupInstructions = 50'000;
    const RobImage mcf = captureRobImage(config, "mcf");
    for (const int entries : {96, 128}) {
        SimConfig small = config;
        small.core.robEntries = entries;
        EXPECT_EQ(restoreForged(mcf, "mcf", small),
                  SnapshotErrorKind::kFormat)
            << entries << " ROB entries";
    }
}

TEST(Snapshot, MetaDescribesCapturePoint)
{
    const SimConfig config =
        makeTestConfig(RunaheadConfig::kBaseline, false);
    Simulation sim(config, buildSuiteWorkload("mcf"));
    sim.runWarmup();
    const std::string payload = captureSnapshot(sim);

    const SnapshotMeta meta = peekSnapshotMeta(payload);
    EXPECT_EQ(meta.formatVersion, kSnapshotFormatVersion);
    EXPECT_EQ(meta.workload, "mcf");
    EXPECT_EQ(meta.configDigest, snapshotConfigDigest(config));
    EXPECT_EQ(meta.warmupDigest, snapshotWarmupDigest(config));
    EXPECT_TRUE(meta.forkSafe); // Baseline warmup: no runahead at all.
    EXPECT_FALSE(meta.faultPresent);
    EXPECT_FALSE(meta.enginePresent);
    EXPECT_EQ(meta.warmupInstructions, config.warmupInstructions);
    EXPECT_GE(meta.retired, config.warmupInstructions);
    EXPECT_GT(meta.cycle, 0u);
    EXPECT_EQ(meta.programSize, sim.program().size());
}

/** Fork restore: one baseline warmup image feeds every config variant;
 *  each forked run must be deterministic (two forks of the same
 *  variant agree exactly). */
TEST(Snapshot, ForkRestoreIsDeterministicAcrossVariants)
{
    const SimConfig warm_config =
        makeTestConfig(RunaheadConfig::kBaseline, false);
    std::string payload;
    {
        Simulation warm(warm_config, buildSuiteWorkload("mcf"));
        warm.runWarmup();
        payload = captureSnapshot(warm);
    }
    ASSERT_TRUE(peekSnapshotMeta(payload).forkSafe);

    for (const RunaheadConfig rc : kAllConfigs) {
        const SimConfig config = makeTestConfig(rc, false);
        // The variants differ only in runahead policy, so they share
        // the warmup digest — that is what makes the fork legal.
        ASSERT_EQ(snapshotWarmupDigest(config),
                  snapshotWarmupDigest(warm_config))
            << runaheadConfigName(rc);

        RunCapture caps[2];
        for (RunCapture &cap : caps) {
            Simulation sim(config, buildSuiteWorkload("mcf"));
            restoreSnapshot(sim, payload, SnapshotRestoreMode::kFork);
            hookCommits(sim, cap);
            cap.cycles = sim.runMeasured().cycles;
            collectStats(sim, cap);
            EXPECT_GT(cap.trace.size(), 0u);
        }
        expectIdentical(caps[0], caps[1], rc);
    }
}

TEST(Snapshot, ExactRestoreRejectsConfigMismatch)
{
    const SimConfig base =
        makeTestConfig(RunaheadConfig::kBaseline, false);
    std::string payload;
    {
        Simulation warm(base, buildSuiteWorkload("mcf"));
        warm.runWarmup();
        payload = captureSnapshot(warm);
    }

    const SimConfig other =
        makeTestConfig(RunaheadConfig::kHybrid, false);
    Simulation sim(other, buildSuiteWorkload("mcf"));
    try {
        restoreSnapshot(sim, payload, SnapshotRestoreMode::kExact);
        FAIL() << "config mismatch accepted";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kMismatch);
    }
}

TEST(Snapshot, RestoreRejectsWorkloadMismatch)
{
    const SimConfig config =
        makeTestConfig(RunaheadConfig::kBaseline, false);
    std::string payload;
    {
        Simulation warm(config, buildSuiteWorkload("mcf"));
        warm.runWarmup();
        payload = captureSnapshot(warm);
    }

    Simulation sim(config, buildSuiteWorkload("lbm"));
    try {
        restoreSnapshot(sim, payload, SnapshotRestoreMode::kFork);
        FAIL() << "workload mismatch accepted";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kMismatch);
    }
}

TEST(Snapshot, ForkRestoreRejectsWarmupConfigMismatch)
{
    const SimConfig base =
        makeTestConfig(RunaheadConfig::kBaseline, false);
    std::string payload;
    {
        Simulation warm(base, buildSuiteWorkload("mcf"));
        warm.runWarmup();
        payload = captureSnapshot(warm);
    }

    SimConfig other = makeTestConfig(RunaheadConfig::kBaseline, false);
    other.core.robEntries *= 2; // Warmup-relevant structural change.
    other.finalize();
    Simulation sim(other, buildSuiteWorkload("mcf"));
    try {
        restoreSnapshot(sim, payload, SnapshotRestoreMode::kFork);
        FAIL() << "warmup-config mismatch accepted";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kMismatch);
    }
}

/** Move @p value off its current value, by type. */
template <class T>
void
perturb(T &value)
{
    if constexpr (std::is_same_v<T, bool>)
        value = !value;
    else if constexpr (std::is_enum_v<T>)
        value = static_cast<T>(static_cast<int>(value) + 1);
    else if constexpr (std::is_arithmetic_v<T>)
        value += 1;
    else if constexpr (std::is_same_v<T, std::string>)
        value += '+';
    else if constexpr (std::is_same_v<T, EnergyCoefficients>)
        value.dramAccessPj += 1.0; // Opaque: one coefficient stands in.
    else
        value.push_back(RunaheadConfig::kHybrid); // corePolicies
}

/** Every leaf of the config field list, set off its default one at a
 *  time, moves exactly the digests its tag names: a machine field
 *  both, a variant field the exact one only (so forks across variants
 *  stay legal), an unhashed one neither. Each machine or variant field
 *  changes what a resumed run does (a 128 B DRAM line moves mcf's
 *  cycle count), so a digest that missed one would let an image
 *  restore into a machine it does not describe. */
TEST(Snapshot, DigestsCoverEveryModelledField)
{
    SimConfig config = makeConfig(RunaheadConfig::kBaseline, false);
    const std::uint64_t warm = snapshotWarmupDigest(config);
    const std::uint64_t exact = snapshotConfigDigest(config);
    std::size_t leaves = 0;
    forEachConfigLeaf(config, [&](const std::string &path, auto &value,
                                  auto tag) {
        const auto saved = value;
        perturb(value);
        EXPECT_EQ(snapshotWarmupDigest(config) != warm,
                  tag == FieldTag::kMachine)
            << "warmup digest vs " << path;
        EXPECT_EQ(snapshotConfigDigest(config) != exact,
                  tag != FieldTag::kUnhashed)
            << "exact digest vs " << path;
        value = saved;
        ++leaves;
    });
    EXPECT_GT(leaves, 100u);
}

// --------------------------------------------------------------------
// File framing
// --------------------------------------------------------------------

class SnapshotFileTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = ::testing::TempDir() + "/snap_test.rabsnap";
        const SimConfig config =
            makeTestConfig(RunaheadConfig::kBaseline, false);
        Simulation warm(config, buildSuiteWorkload("mcf"));
        warm.runWarmup();
        payload_ = captureSnapshot(warm);
        writeSnapshotFile(path_, payload_);
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string readRaw() const
    {
        std::ifstream in(path_, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    }

    void writeRaw(const std::string &bytes) const
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    SnapshotErrorKind readKind() const
    {
        try {
            readSnapshotFile(path_);
        } catch (const SnapshotError &e) {
            return e.kind();
        }
        ADD_FAILURE() << "corrupt snapshot file accepted";
        return SnapshotErrorKind::kIo;
    }

    std::string path_;
    std::string payload_;
};

TEST_F(SnapshotFileTest, RoundTripsThroughDisk)
{
    EXPECT_EQ(readSnapshotFile(path_), payload_);
    // No leftover temp file from the atomic write.
    EXPECT_EQ(readRaw().size(), payload_.size() + 24);
}

TEST_F(SnapshotFileTest, RejectsTruncatedFile)
{
    const std::string raw = readRaw();
    writeRaw(raw.substr(0, raw.size() - 7));
    EXPECT_EQ(readKind(), SnapshotErrorKind::kTruncated);

    writeRaw(raw.substr(0, 11)); // Mid-header cut.
    EXPECT_EQ(readKind(), SnapshotErrorKind::kTruncated);
}

TEST_F(SnapshotFileTest, RejectsBitFlip)
{
    std::string raw = readRaw();
    raw[raw.size() / 2] ^= 0x40; // Somewhere inside the payload.
    writeRaw(raw);
    EXPECT_EQ(readKind(), SnapshotErrorKind::kCrc);
}

TEST_F(SnapshotFileTest, RejectsWrongMagic)
{
    std::string raw = readRaw();
    raw[0] = 'X';
    writeRaw(raw);
    EXPECT_EQ(readKind(), SnapshotErrorKind::kMagic);
}

TEST_F(SnapshotFileTest, RejectsWrongVersion)
{
    // The version u32 sits right after the 8-byte magic, in the file
    // frame and in the payload alike. Images of the previous format
    // (which carried stat counters) are version skew too.
    const std::string good = readRaw();
    for (const std::uint32_t version : {99u, kSnapshotFormatVersion - 1}) {
        std::string raw = good;
        raw[8] = static_cast<char>(version);
        writeRaw(raw);
        EXPECT_EQ(readKind(), SnapshotErrorKind::kVersion) << version;

        std::string payload = payload_;
        payload[8] = static_cast<char>(version);
        try {
            peekSnapshotMeta(payload);
            ADD_FAILURE() << "payload version " << version << " accepted";
        } catch (const SnapshotError &e) {
            EXPECT_EQ(e.kind(), SnapshotErrorKind::kVersion) << version;
        }
    }
}

TEST_F(SnapshotFileTest, RejectsMissingFile)
{
    try {
        readSnapshotFile(path_ + ".does-not-exist");
        FAIL() << "missing file accepted";
    } catch (const SnapshotError &e) {
        EXPECT_EQ(e.kind(), SnapshotErrorKind::kIo);
    }
}

TEST_F(SnapshotFileTest, TruncatedPayloadRejectedOnRestore)
{
    // A payload cut inside a section must fail structurally, not read
    // out of bounds or silently succeed.
    const std::string cut = payload_.substr(0, payload_.size() / 2);
    const SimConfig config =
        makeTestConfig(RunaheadConfig::kBaseline, false);
    Simulation sim(config, buildSuiteWorkload("mcf"));
    try {
        restoreSnapshot(sim, cut, SnapshotRestoreMode::kExact);
        FAIL() << "truncated payload accepted";
    } catch (const SnapshotError &e) {
        EXPECT_TRUE(e.kind() == SnapshotErrorKind::kTruncated
                    || e.kind() == SnapshotErrorKind::kFormat)
            << snapshotErrorKindName(e.kind());
    }
}

TEST(SnapshotError, KindNamesAreStable)
{
    EXPECT_STREQ(snapshotErrorKindName(SnapshotErrorKind::kIo), "io");
    EXPECT_STREQ(snapshotErrorKindName(SnapshotErrorKind::kCrc), "crc");
    EXPECT_STREQ(snapshotErrorKindName(SnapshotErrorKind::kMismatch),
                 "mismatch");
}

// ---------------------------------------------------------------------
// Campaign integration: shared-image warmup
// ---------------------------------------------------------------------

CampaignSpec
campaignSpec()
{
    CampaignSpec spec;
    spec.name = "snapshot-grid";
    spec.workloads = {"mcf", "libq"};
    spec.variants = {makeVariant(RunaheadConfig::kBaseline, false),
                     makeVariant(RunaheadConfig::kHybrid, false),
                     makeVariant(RunaheadConfig::kCRE, false)};
    spec.instructions = 2'000;
    spec.warmup = 4'000;
    spec.snapshotWarmup = true;
    return spec;
}

TEST(SnapshotCampaign, SharedAndPerPointImagesAreByteIdentical)
{
    // The whole scheme's correctness argument in one test: the
    // campaign warms each (workload, seed, prefetch) group once and
    // forks every variant from the shared image; the reference builds
    // a private image per point and forks the point from it. Same
    // fork semantics, deterministic warmup ⇒ identical images ⇒ every
    // result and stat payload, and so the canonical manifests, must
    // be byte-identical. The campaign runs on two threads, so this
    // also certifies against thread-count variation.
    const CampaignSpec spec = campaignSpec();

    const CampaignResult shared = runCampaign(spec, 2);
    for (const PointResult &p : shared.points) {
        ASSERT_TRUE(p.ok) << p.error;
        EXPECT_TRUE(p.snapshotWarmed);
    }

    CampaignResult private_images;
    private_images.spec = spec;
    const std::vector<SweepPoint> grid = expandGrid(spec);
    private_images.points.reserve(grid.size());
    for (const SweepPoint &point : grid) {
        const std::string image = buildWarmupImage(spec, point);
        PointResult pr = runPoint(spec, point, &image);
        ASSERT_TRUE(pr.ok) << pr.error;
        EXPECT_TRUE(pr.snapshotWarmed);
        const PointResult &s = shared.points.at(point.index);
        EXPECT_EQ(simResultJson(pr.result).dump(),
                  simResultJson(s.result).dump())
            << point.workload << "/" << point.variant;
        EXPECT_EQ(pr.stats, s.stats)
            << point.workload << "/" << point.variant;
        private_images.points.push_back(std::move(pr));
    }

    EXPECT_EQ(campaignManifest(shared, /*canonical=*/true).dump(),
              campaignManifest(private_images, /*canonical=*/true).dump());
}

TEST(SnapshotCampaign, CorruptImageFailsThePoint)
{
    // A snapshot-warmed point forks from its image or fails: warming
    // inline instead would move it into the other result universe
    // without a trace in the manifest.
    const CampaignSpec spec = campaignSpec();
    const SweepPoint point = expandGrid(spec).at(1); // mcf, Hybrid
    std::string image = buildWarmupImage(spec, point);
    image[0] = 'X'; // Payload magic.
    std::string expected;
    try {
        peekSnapshotMeta(image);
    } catch (const SnapshotError &e) {
        expected = e.what();
    }
    ASSERT_FALSE(expected.empty());

    const PointResult pr = runPoint(spec, point, &image);
    EXPECT_TRUE(pr.ran);
    EXPECT_FALSE(pr.ok);
    EXPECT_FALSE(pr.snapshotWarmed);
    EXPECT_NE(pr.error.find(expected), std::string::npos) << pr.error;
}

TEST(SnapshotCampaign, UnbuildableImageFailsItsGroup)
{
    // The image is built once per group. When that build fails, every
    // point of the group fails with the build's error; the other
    // groups fork as usual.
    CampaignSpec spec = campaignSpec();
    spec.workloads = {"mcf", "does-not-exist"};
    for (const int threads : {1, 2}) {
        const CampaignResult campaign = runCampaign(spec, threads);
        EXPECT_EQ(campaign.failedCount(), spec.variants.size());
        for (const PointResult &p : campaign.points) {
            if (p.point.workload == "mcf") {
                EXPECT_TRUE(p.ok) << p.error;
                EXPECT_TRUE(p.snapshotWarmed);
                continue;
            }
            EXPECT_TRUE(p.ran);
            EXPECT_FALSE(p.ok);
            EXPECT_FALSE(p.snapshotWarmed);
            EXPECT_NE(p.error.find("warmup image build failed for "
                                   "'does-not-exist' seed 0: unknown "
                                   "workload 'does-not-exist'"),
                      std::string::npos)
                << p.error;
        }
    }
}

TEST(SnapshotCampaign, SnapshotAndInlineWarmupAreDistinctUniverses)
{
    // A snapshot-warmed point warmed up under the baseline policy; an
    // inline-warmed one under its own. The runs genuinely differ for
    // non-baseline variants, which is exactly why the v4 store key
    // separates the two worlds.
    CampaignSpec spec = campaignSpec();
    const CampaignResult snap = runCampaign(spec, 1);
    spec.snapshotWarmup = false;
    const CampaignResult inline_warm = runCampaign(spec, 1);

    ASSERT_EQ(snap.points.size(), inline_warm.points.size());
    // Baseline variants fork from a baseline-warmed image: identical
    // machines either way, so their results must agree exactly.
    for (std::size_t i = 0; i < snap.points.size(); ++i) {
        const PointResult &a = snap.points[i];
        const PointResult &b = inline_warm.points[i];
        ASSERT_TRUE(a.ok && b.ok);
        EXPECT_FALSE(b.snapshotWarmed);
        if (a.point.runahead == RunaheadConfig::kBaseline) {
            EXPECT_EQ(a.result.cycles, b.result.cycles)
                << a.point.workload;
            EXPECT_EQ(a.stats, b.stats) << a.point.workload;
        }
    }
}

TEST(SnapshotCampaign, StoreCachesImagesAndKeysResultsByImage)
{
    const fs::path root =
        fs::path(::testing::TempDir()) / "rabstore-snapwarm";
    fs::remove_all(root);
    ResultStore store(root.string());
    ASSERT_TRUE(store.ok()) << store.error();

    const CampaignSpec spec = campaignSpec();
    CampaignRunOptions options;
    options.store = &store;

    // Cold: every image is built (one per workload — one seed, one
    // prefetch setting) and persisted; every result is a miss.
    const CampaignResult cold = runCampaign(spec, 2, options);
    for (const PointResult &p : cold.points)
        ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(cold.storeSnapshotMisses, spec.workloads.size());
    EXPECT_EQ(cold.storeSnapshotHits, 0u);
    EXPECT_EQ(cold.storeMisses, spec.pointCount());

    // Warm: images and results all served from the store.
    const CampaignResult warm = runCampaign(spec, 2, options);
    EXPECT_EQ(warm.storeSnapshotHits, spec.workloads.size());
    EXPECT_EQ(warm.storeSnapshotMisses, 0u);
    EXPECT_EQ(warm.storeHits, spec.pointCount());
    EXPECT_EQ(campaignManifest(warm, true).dump(),
              campaignManifest(cold, true).dump());

    // An inline-warmup campaign over the same store must not be
    // served snapshot-warmed results: different key universe.
    CampaignSpec inline_spec = spec;
    inline_spec.snapshotWarmup = false;
    const CampaignResult inline_run =
        runCampaign(inline_spec, 2, options);
    EXPECT_EQ(inline_run.storeHits, 0u);
    EXPECT_EQ(inline_run.storeMisses, inline_spec.pointCount());
}

} // namespace
} // namespace rab
