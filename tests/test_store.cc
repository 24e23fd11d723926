/**
 * @file
 * Unit tests: the crash-safe campaign result store (sweep/store).
 *
 * The load-bearing guarantees certified here:
 *  - the canonical config serialisation and its hash are pinned to
 *    golden values, so an accidental format change (which silently
 *    invalidates every cached result in every store) fails loudly;
 *  - records round-trip bit-exactly, and every class of corruption
 *    (truncation, bit flips, a record filed under the wrong key) is
 *    self-healed: discarded and recomputed, never crashed on and
 *    never returned as someone else's result;
 *  - a campaign resumed against a warm store produces a canonical
 *    manifest byte-identical to a straight-line run — the property
 *    the kill -9 CI job checks end to end.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "sweep/campaign.hh"
#include "sweep/report.hh"
#include "sweep/store/result_store.hh"
#include "sweep/store/store_key.hh"

namespace fs = std::filesystem;

namespace rab
{
namespace
{

/** Fresh per-test store root under the gtest temp dir. */
std::string
storeRoot(const std::string &name)
{
    const fs::path root =
        fs::path(::testing::TempDir()) / ("rabstore-" + name);
    fs::remove_all(root);
    return root.string();
}

CampaignSpec
storeSpec()
{
    CampaignSpec spec;
    spec.name = "store-grid";
    spec.workloads = {"mcf", "libq"};
    spec.variants = {makeVariant(RunaheadConfig::kBaseline, false),
                     makeVariant(RunaheadConfig::kHybrid, false)};
    spec.instructions = 2'000;
    spec.warmup = 500;
    return spec;
}

/** A synthetic completed point (no simulation needed). */
PointResult
syntheticResult()
{
    PointResult pr;
    pr.point.index = 3;
    pr.point.workload = "mcf";
    pr.point.variant = "Hybrid";
    pr.point.runahead = RunaheadConfig::kHybrid;
    pr.point.seed = 42;
    pr.ok = true;
    pr.ran = true;
    pr.result.instructions = 2'000;
    pr.result.cycles = 5'431;
    pr.result.ipc = 0.368;
    pr.result.mpki = 12.5;
    pr.result.dramRequests = 77;
    pr.result.energy.totalJ = 1.25e-3;
    pr.stats = {{"core.commit.committed", 2000.0},
                {"mem.dram.reads", 77.0}};
    pr.wallSeconds = 0.125;
    return pr;
}

StoreKey
keyFor(const CampaignSpec &spec, const PointResult &pr)
{
    return makeStoreKey(spec, pr.point, "deadbeef");
}

// ---------------------------------------------------------------------
// Key derivation
// ---------------------------------------------------------------------

TEST(StoreKey, GoldenConfigSerialisation)
{
    // The canonical config string IS the cache-key format. Any change
    // here — field order, spelling, a new field, or a config default
    // the config= digest hashes — invalidates every record in every
    // store on disk. That can be the right call, but it must be a
    // *decision*: update this golden text (and bump rab-config-key-v5
    // for a format change) deliberately.
    CampaignSpec spec = storeSpec();
    const std::vector<SweepPoint> grid = expandGrid(spec);
    const SweepPoint &hybrid = grid[1]; // mcf x Hybrid
    EXPECT_EQ(canonicalConfigString(spec, hybrid),
              "schema=rab-config-key-v5\n"
              "config=0c8c243e501b347f\n"
              "fast_forward=1\n"
              "snapshot=-\n");
    // A snapshot-warmed point keys to the exact image it forked from.
    EXPECT_EQ(canonicalConfigString(spec, hybrid,
                                    "1/00c0ffee00c0ffee"),
              "schema=rab-config-key-v5\n"
              "config=0c8c243e501b347f\n"
              "fast_forward=1\n"
              "snapshot=1/00c0ffee00c0ffee\n");
}

TEST(StoreKey, EngineConfigsKeyDistinctly)
{
    // CRE and its non-engine base (buffer-cc) differ only in the
    // engine, which the config digest hashes: they must never alias in
    // the store. A mix's key pins one workload line per core; its
    // per-core policies are in the digest.
    CampaignSpec spec = storeSpec();
    spec.variants = {makeVariant(RunaheadConfig::kRunaheadBufferCC,
                                 false),
                     makeVariant(RunaheadConfig::kCRE, false)};
    const std::vector<SweepPoint> grid = expandGrid(spec);
    EXPECT_NE(configHashHex(spec, grid[0]),
              configHashHex(spec, grid[1]));
    EXPECT_NE(canonicalConfigString(spec, grid[0]),
              canonicalConfigString(spec, grid[1]));

    CampaignSpec mix = storeSpec();
    mix.workloads.clear();
    mix.variants = {parseVariantLabel("cre|baseline")};
    mix.mixes = {{"duo", {"mcf", "libq"}}};
    const SweepPoint p = expandGrid(mix)[0];
    ASSERT_TRUE(p.isMix());
    EXPECT_EQ(canonicalConfigString(mix, p),
              "schema=rab-config-key-v5\n"
              "config=3b00957c38f270ab\n"
              "fast_forward=1\n"
              "core0=mcf\n"
              "core1=libq\n"
              "snapshot=-\n");
}

TEST(StoreKey, GoldenConfigHash)
{
    // Golden hash of the serialisation above: byte-identical across
    // processes, hosts and compilers (FNV-1a over a fixed string).
    CampaignSpec spec = storeSpec();
    const std::vector<SweepPoint> grid = expandGrid(spec);
    EXPECT_EQ(configHashHex(spec, grid[1]),
              hex64(fnv1a64(canonicalConfigString(spec, grid[1]))));
    EXPECT_EQ(configHashHex(spec, grid[1]), "7ffe5c8b79481036");
    // A non-empty snapshot id changes the key (and only the key —
    // the id is never parsed back out of it).
    EXPECT_NE(configHashHex(spec, grid[1], "1/00c0ffee00c0ffee"),
              configHashHex(spec, grid[1]));
}

TEST(StoreKey, MixPointsKeyOnPerCoreAssignment)
{
    // Two mixes that differ only in one core's workload, and two
    // variants that differ only in one core's policy, must hash to
    // distinct keys; homogeneous relabelings of the same assignment
    // must not.
    CampaignSpec spec = storeSpec();
    spec.workloads.clear();
    spec.variants = {parseVariantLabel("hybrid|baseline")};
    spec.mixes = {makeMix4()};
    CampaignSpec other = spec;
    other.mixes[0].workloads[3] = "lbm";

    const SweepPoint a = expandGrid(spec)[0];
    const SweepPoint b = expandGrid(other)[0];
    EXPECT_TRUE(a.isMix());
    EXPECT_NE(canonicalConfigString(spec, a),
              canonicalConfigString(other, b));
    EXPECT_NE(configHashHex(spec, a), configHashHex(other, b));

    CampaignSpec swapped = spec;
    swapped.variants = {parseVariantLabel("baseline|hybrid")};
    const SweepPoint c = expandGrid(swapped)[0];
    EXPECT_NE(configHashHex(spec, a), configHashHex(swapped, c));
}

TEST(StoreKey, StableAcrossThreadsAndFieldWrites)
{
    // The hash must not depend on which thread computes it or on the
    // order spec fields were assigned in.
    CampaignSpec a = storeSpec();
    CampaignSpec b;
    b.warmup = 500;            // assigned in a different order
    b.instructions = 2'000;
    b.name = "store-grid";
    b.variants = a.variants;
    b.workloads = a.workloads;

    const SweepPoint point = expandGrid(a)[2];
    const std::string reference = configHashHex(a, point);
    EXPECT_EQ(configHashHex(b, point), reference);

    std::vector<std::string> hashes(8);
    std::vector<std::thread> pool;
    for (std::size_t i = 0; i < hashes.size(); ++i) {
        pool.emplace_back([&, i] {
            hashes[i] = configHashHex(a, point);
        });
    }
    for (std::thread &t : pool)
        t.join();
    for (const std::string &h : hashes)
        EXPECT_EQ(h, reference);
}

TEST(StoreKey, EveryFieldChangesTheKey)
{
    CampaignSpec spec = storeSpec();
    const SweepPoint point = expandGrid(spec)[0];
    const std::string base =
        makeStoreKey(spec, point, "deadbeef").hashHex();

    CampaignSpec warm = spec;
    warm.warmup = 501;
    EXPECT_NE(makeStoreKey(warm, point, "deadbeef").hashHex(), base);

    CampaignSpec insn = spec;
    insn.instructions = 2'001;
    EXPECT_NE(makeStoreKey(insn, point, "deadbeef").hashHex(), base);

    CampaignSpec checked = spec;
    checked.checkLevel = CheckLevel::kFull;
    EXPECT_NE(makeStoreKey(checked, point, "deadbeef").hashHex(), base);

    CampaignSpec noff = spec;
    noff.fastForward = false;
    EXPECT_NE(makeStoreKey(noff, point, "deadbeef").hashHex(), base);

    SweepPoint other = point;
    other.seed = 9;
    EXPECT_NE(makeStoreKey(spec, other, "deadbeef").hashHex(), base);

    SweepPoint variant = expandGrid(spec)[1];
    EXPECT_NE(makeStoreKey(spec, variant, "deadbeef").hashHex(), base);

    SweepPoint prefetch = point;
    prefetch.prefetch = true;
    EXPECT_NE(makeStoreKey(spec, prefetch, "deadbeef").hashHex(), base);

    EXPECT_NE(makeStoreKey(spec, point, "cafef00d").hashHex(), base);
}

// ---------------------------------------------------------------------
// Record round trip + self healing
// ---------------------------------------------------------------------

TEST(ResultStore, RoundTripsAResult)
{
    ResultStore store(storeRoot("roundtrip"));
    ASSERT_TRUE(store.ok()) << store.error();

    const CampaignSpec spec = storeSpec();
    const PointResult original = syntheticResult();
    const StoreKey key = keyFor(spec, original);

    EXPECT_EQ(store.lookup(key), std::nullopt);
    EXPECT_EQ(store.misses(), 1u);

    ASSERT_TRUE(store.put(key, original));
    EXPECT_EQ(store.stored(), 1u);

    const auto cached = store.lookup(key);
    ASSERT_TRUE(cached.has_value());
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_TRUE(cached->ok);
    EXPECT_TRUE(cached->ran);
    EXPECT_TRUE(cached->cached);
    EXPECT_EQ(cached->point.workload, original.point.workload);
    EXPECT_EQ(cached->point.variant, original.point.variant);
    EXPECT_EQ(cached->point.seed, original.point.seed);
    EXPECT_EQ(cached->result.cycles, original.result.cycles);
    EXPECT_EQ(cached->result.ipc, original.result.ipc);
    EXPECT_EQ(cached->result.energy.totalJ,
              original.result.energy.totalJ);
    EXPECT_EQ(cached->stats, original.stats);
    EXPECT_EQ(cached->wallSeconds, original.wallSeconds);
}

TEST(ResultStore, RejectsFailedResults)
{
    ResultStore store(storeRoot("failed"));
    ASSERT_TRUE(store.ok()) << store.error();

    PointResult failed = syntheticResult();
    failed.ok = false;
    failed.error = "WatchdogTimeout: synthetic";
    const StoreKey key = keyFor(storeSpec(), failed);

    // A failure must be re-attempted next run, never replayed.
    EXPECT_FALSE(store.put(key, failed));
    EXPECT_EQ(store.stored(), 0u);
    EXPECT_FALSE(fs::exists(store.recordPath(key)));
}

TEST(ResultStore, SelfHealsTruncatedRecord)
{
    ResultStore store(storeRoot("truncated"));
    ASSERT_TRUE(store.ok()) << store.error();
    const StoreKey key = keyFor(storeSpec(), syntheticResult());
    ASSERT_TRUE(store.put(key, syntheticResult()));

    // Chop the record mid-payload: the torn-write shape a crash
    // without the atomic rename would have produced.
    const std::string path = store.recordPath(key);
    const auto size = fs::file_size(path);
    fs::resize_file(path, size / 2);

    EXPECT_EQ(store.lookup(key), std::nullopt);
    EXPECT_EQ(store.corruptDiscarded(), 1u);
    EXPECT_FALSE(fs::exists(path)) << "corrupt record not unlinked";

    // The store recovers: a fresh put and lookup work again.
    ASSERT_TRUE(store.put(key, syntheticResult()));
    EXPECT_TRUE(store.lookup(key).has_value());
}

TEST(ResultStore, SelfHealsFlippedPayloadBit)
{
    ResultStore store(storeRoot("bitflip"));
    ASSERT_TRUE(store.ok()) << store.error();
    const StoreKey key = keyFor(storeSpec(), syntheticResult());
    ASSERT_TRUE(store.put(key, syntheticResult()));

    const std::string path = store.recordPath(key);
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(40); // Somewhere in the JSON payload.
    char byte = 0;
    file.seekg(40);
    file.get(byte);
    file.seekp(40);
    file.put(static_cast<char>(byte ^ 0x01));
    file.close();

    // CRC catches the flip; the record is discarded, not returned.
    EXPECT_EQ(store.lookup(key), std::nullopt);
    EXPECT_EQ(store.corruptDiscarded(), 1u);
}

TEST(ResultStore, KeyEchoRejectsMisfiledRecord)
{
    ResultStore store(storeRoot("misfiled"));
    ASSERT_TRUE(store.ok()) << store.error();
    const CampaignSpec spec = storeSpec();
    const PointResult pr = syntheticResult();
    const StoreKey key = keyFor(spec, pr);
    ASSERT_TRUE(store.put(key, pr));

    // File the (internally valid, CRC-correct) record under a
    // different key's path — the shape of a hash collision or a
    // mangled store directory.
    StoreKey other = key;
    other.seed = key.seed + 1;
    fs::create_directories(
        fs::path(store.recordPath(other)).parent_path());
    fs::copy_file(store.recordPath(key), store.recordPath(other));

    // The key echo inside the payload disagrees: miss, discard.
    EXPECT_EQ(store.lookup(other), std::nullopt);
    EXPECT_EQ(store.corruptDiscarded(), 1u);
    // The original record is untouched.
    EXPECT_TRUE(store.lookup(key).has_value());
}

TEST(ResultStore, RejectsOtherRecordVersions)
{
    // A record of another format version, such as the JSON records of
    // version 1, must read as a miss (self-healed away), never as a
    // hit. The CRC covers only the body, so the rewritten version
    // field leaves magic, CRC and key echo valid: only the version
    // gate can reject it.
    ResultStore store(storeRoot("version"));
    ASSERT_TRUE(store.ok()) << store.error();
    const StoreKey key = keyFor(storeSpec(), syntheticResult());
    ASSERT_TRUE(store.put(key, syntheticResult()));

    const std::string path = store.recordPath(key);
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(8); // The u32 version follows the 8-byte magic.
    file.write("\x01\0\0\0", 4);
    file.close();

    EXPECT_EQ(store.lookup(key), std::nullopt);
    EXPECT_EQ(store.corruptDiscarded(), 1u);
    EXPECT_FALSE(fs::exists(path)) << "stale record not unlinked";
}

TEST(ResultStore, BadRootFailsClosed)
{
    ResultStore store("/proc/definitely/not/writable");
    EXPECT_FALSE(store.ok());
    EXPECT_FALSE(store.error().empty());
    // A failed store degrades to "no cache": put is a no-op, lookup
    // misses, nothing throws.
    const StoreKey key = keyFor(storeSpec(), syntheticResult());
    EXPECT_FALSE(store.put(key, syntheticResult()));
    EXPECT_EQ(store.lookup(key), std::nullopt);
}

// ---------------------------------------------------------------------
// Warmup-snapshot records
// ---------------------------------------------------------------------

SnapshotStoreKey
snapshotKey()
{
    SnapshotStoreKey key;
    key.gitSha = "deadbeef";
    key.warmupDigestHex = "00c0ffee00c0ffee";
    key.workload = "mcf";
    key.seed = 42;
    key.warmupInstructions = 500;
    key.formatVersion = 1;
    return key;
}

TEST(ResultStore, SnapshotRecordsRoundTrip)
{
    ResultStore store(storeRoot("snap"));
    ASSERT_TRUE(store.ok()) << store.error();
    const SnapshotStoreKey key = snapshotKey();

    EXPECT_EQ(store.lookupSnapshot(key), std::nullopt);
    EXPECT_EQ(store.snapshotMisses(), 1u);

    // Snapshot payloads are opaque binary including NULs — the store
    // must not treat them as text.
    const std::string payload("RABSNAP1\0\x01\xff warm state", 20);
    ASSERT_TRUE(store.putSnapshot(key, payload));
    EXPECT_EQ(store.snapshotStored(), 1u);

    const auto back = store.lookupSnapshot(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, payload);
    EXPECT_EQ(store.snapshotHits(), 1u);

    // The key carries the snapshot format version, so an image stored
    // by another format never hits and is rebuilt.
    SnapshotStoreKey other_format = key;
    ++other_format.formatVersion;
    EXPECT_EQ(store.lookupSnapshot(other_format), std::nullopt);

    // Result records and snapshot records share a root without
    // colliding (different subdirectories, different magic).
    const CampaignSpec spec = storeSpec();
    const PointResult pr = syntheticResult();
    ASSERT_TRUE(store.put(keyFor(spec, pr), pr));
    EXPECT_TRUE(store.lookup(keyFor(spec, pr)).has_value());
    EXPECT_TRUE(store.lookupSnapshot(key).has_value());
}

TEST(ResultStore, SnapshotRecordsSelfHeal)
{
    ResultStore store(storeRoot("snapheal"));
    ASSERT_TRUE(store.ok()) << store.error();
    const SnapshotStoreKey key = snapshotKey();
    const std::string payload(4096, '\x5a');
    ASSERT_TRUE(store.putSnapshot(key, payload));
    const std::string path = store.snapshotPath(key);

    const auto readRaw = [&] {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    };
    const auto writeRaw = [&](const std::string &raw) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(raw.data(), static_cast<std::streamsize>(raw.size()));
    };
    const std::string good = readRaw();

    // Truncation: miss, discard, and a re-put works.
    writeRaw(good.substr(0, good.size() / 2));
    EXPECT_EQ(store.lookupSnapshot(key), std::nullopt);
    EXPECT_EQ(store.corruptDiscarded(), 1u);
    EXPECT_FALSE(fs::exists(path));

    // Bit flip in the snapshot bytes: CRC catches it.
    std::string flipped = good;
    flipped[flipped.size() - 7] ^= 0x10;
    writeRaw(flipped);
    EXPECT_EQ(store.lookupSnapshot(key), std::nullopt);
    EXPECT_EQ(store.corruptDiscarded(), 2u);

    // Key-echo mismatch (a misfiled image): CRC-valid, still a miss —
    // a foreign warmup image must never be forked from.
    writeRaw(good);
    SnapshotStoreKey other = key;
    other.warmupDigestHex = "ffffffffffffffff";
    std::error_code ec;
    fs::copy_file(path, store.snapshotPath(other),
                  fs::copy_options::overwrite_existing, ec);
    ASSERT_FALSE(ec);
    EXPECT_EQ(store.lookupSnapshot(other), std::nullopt);
    EXPECT_EQ(store.corruptDiscarded(), 3u);
    // The correctly-filed record still reads back.
    EXPECT_TRUE(store.lookupSnapshot(key).has_value());
}

// ---------------------------------------------------------------------
// Campaign integration: resume == straight line
// ---------------------------------------------------------------------

TEST(ResultStore, ResumedCampaignIsByteIdentical)
{
    // A mix point's record carries its per-core identity and its chip
    // stats, and must read back as byte-identical as a single core's.
    CampaignSpec spec = storeSpec();
    spec.mixes = {{"duo", {"mcf", "libq"}}};

    // Reference: no store at all.
    const std::string reference =
        campaignManifest(runCampaign(spec, 2), /*canonical=*/true)
            .dump();

    ResultStore store(storeRoot("resume"));
    ASSERT_TRUE(store.ok()) << store.error();
    CampaignRunOptions options;
    options.store = &store;

    // Run 1: cold store — everything simulated, everything persisted.
    const CampaignResult cold = runCampaign(spec, 2, options);
    EXPECT_EQ(cold.storeHits, 0u);
    EXPECT_EQ(cold.storeMisses, spec.pointCount());
    EXPECT_EQ(store.stored(), spec.pointCount());
    EXPECT_EQ(campaignManifest(cold, true).dump(), reference);

    // Run 2: warm store — nothing simulated, byte-identical output.
    const CampaignResult warm = runCampaign(spec, 2, options);
    EXPECT_EQ(warm.storeHits, spec.pointCount());
    EXPECT_EQ(warm.storeMisses, 0u);
    for (const PointResult &p : warm.points)
        EXPECT_TRUE(p.cached);
    EXPECT_EQ(campaignManifest(warm, true).dump(), reference);
}

/** Store hits are not throughput: a rerun served wholly from the
 *  store simulated nothing, so it counts no instructions and fails the
 *  perf gate instead of passing at the rate the store reads at. */
TEST(ResultStore, AllHitRerunFailsThePerfGate)
{
    const CampaignSpec spec = storeSpec();
    ResultStore store(storeRoot("all-hit"));
    ASSERT_TRUE(store.ok()) << store.error();
    CampaignRunOptions options;
    options.store = &store;

    const CampaignResult cold = runCampaign(spec, 2, options);
    ASSERT_EQ(cold.failedCount(), 0u);
    EXPECT_GT(cold.committedInstructions(), 0u);
    const Json baseline = makeBaseline(cold);
    EXPECT_TRUE(perfGate(cold, baseline, 0.25).pass);

    const CampaignResult warm = runCampaign(spec, 2, options);
    ASSERT_EQ(warm.storeHits, spec.pointCount());
    EXPECT_EQ(warm.committedInstructions(), 0u);
    EXPECT_EQ(campaignInstructionsPerSecond(warm), 0.0);
    const GateResult gate = perfGate(warm, baseline, 0.25);
    EXPECT_FALSE(gate.pass);
    EXPECT_NE(gate.message.find("no point was simulated"),
              std::string::npos)
        << gate.message;
}

TEST(ResultStore, InterruptedCampaignResumesWhereItDied)
{
    const CampaignSpec spec = storeSpec();
    const std::string reference =
        campaignManifest(runCampaign(spec, 1), /*canonical=*/true)
            .dump();

    ResultStore store(storeRoot("interrupt"));
    ASSERT_TRUE(store.ok()) << store.error();

    // Run 1 is interrupted after two points — the cooperative-stop
    // shape of Ctrl-C (kill -9 mid-write is the CI crash job; the
    // store's atomic rename makes the two equivalent).
    std::atomic<bool> stop{false};
    std::atomic<int> completed{0};
    CampaignRunOptions options;
    options.store = &store;
    options.stop = &stop;
    options.onPoint = [&](const PointResult &) {
        if (++completed >= 2)
            stop = true;
    };
    const CampaignResult partial = runCampaign(spec, 1, options);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_GT(partial.skippedCount(), 0u);
    const Json partial_manifest = campaignManifest(partial, true);
    EXPECT_TRUE(
        partial_manifest.at("campaign").at("interrupted").asBool());
    EXPECT_GT(
        partial_manifest.at("campaign").at("skipped_points").asU64(),
        0u);

    // Run 2: finishes the remainder; the merged cached+fresh manifest
    // is byte-identical to a never-interrupted run.
    CampaignRunOptions resume;
    resume.store = &store;
    const CampaignResult full = runCampaign(spec, 1, resume);
    EXPECT_FALSE(full.interrupted);
    EXPECT_EQ(full.storeHits, static_cast<std::uint64_t>(completed));
    EXPECT_EQ(campaignManifest(full, true).dump(), reference);
}

// ---------------------------------------------------------------------
// Interruption
// ---------------------------------------------------------------------

TEST(Recovery, StopFlagSkipsUnrunPoints)
{
    const CampaignSpec spec = storeSpec();
    std::atomic<bool> stop{true}; // Interrupt before the first claim.
    CampaignRunOptions options;
    options.stop = &stop;
    const CampaignResult campaign = runCampaign(spec, 2, options);
    EXPECT_TRUE(campaign.interrupted);
    EXPECT_EQ(campaign.skippedCount(), spec.pointCount());
    for (const PointResult &p : campaign.points) {
        EXPECT_FALSE(p.ran);
        EXPECT_EQ(p.error, "interrupted: point not run");
    }
}

} // namespace
} // namespace rab
