/**
 * @file
 * Unit tests: parallel sweep engine, JSON manifests, perf gate.
 *
 * The load-bearing guarantees certified here:
 *  - parallel execution equals serial execution byte for byte across
 *    thread counts {1, 2, 8} (canonical manifests compared as raw
 *    strings);
 *  - one failing point does not take the campaign down — it is
 *    marked failed, everything else completes;
 *  - the manifest schema round-trips through the JSON parser
 *    byte-identically.
 */

#include <gtest/gtest.h>

#include "sweep/campaign.hh"
#include "sweep/report.hh"

namespace rab
{
namespace
{

/** A small but non-trivial grid (2 workloads x 3 variants). */
CampaignSpec
smallSpec()
{
    CampaignSpec spec;
    spec.name = "test-grid";
    spec.workloads = {"mcf", "libq"};
    spec.variants = {makeVariant(RunaheadConfig::kBaseline, false),
                     makeVariant(RunaheadConfig::kHybrid, false),
                     makeVariant(RunaheadConfig::kHybrid, true)};
    spec.instructions = 2'000;
    spec.warmup = 500;
    return spec;
}

TEST(ExpandGrid, DeterministicGridOrder)
{
    CampaignSpec spec = smallSpec();
    spec.seeds = {0, 7};
    const auto points = expandGrid(spec);
    ASSERT_EQ(points.size(), spec.pointCount());
    ASSERT_EQ(points.size(), 2u * 3u * 2u);
    // Workload-major, then variant, then seed; indices sequential.
    EXPECT_EQ(points[0].workload, "mcf");
    EXPECT_EQ(points[0].variant, "Baseline");
    EXPECT_EQ(points[0].seed, 0u);
    EXPECT_EQ(points[1].seed, 7u);
    EXPECT_EQ(points[2].variant, "Hybrid");
    EXPECT_EQ(points[4].variant, "Hybrid+PF");
    EXPECT_EQ(points[6].workload, "libq");
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(points[i].index, i);
}

TEST(Campaign, ParallelEqualsSerialByteForByte)
{
    const CampaignSpec spec = smallSpec();
    const CampaignResult serial = runCampaign(spec, 1);
    ASSERT_EQ(serial.failedCount(), 0u);
    const std::string reference =
        campaignManifest(serial, /*canonical=*/true).dump();
    for (const int threads : {2, 8}) {
        const CampaignResult parallel = runCampaign(spec, threads);
        EXPECT_EQ(campaignManifest(parallel, /*canonical=*/true).dump(),
                  reference)
            << "thread count " << threads
            << " changed the merged output";
    }
}

TEST(Campaign, FaultIsolation)
{
    CampaignSpec spec;
    spec.name = "fault-isolation";
    // Point 1 names no suite workload: it throws inside the worker.
    spec.workloads = {"mcf", "does-not-exist", "libq"};
    spec.variants = {makeVariant(RunaheadConfig::kHybrid, false)};
    spec.instructions = 5'000;
    spec.warmup = 1'000;

    for (const int threads : {1, 4}) {
        const CampaignResult campaign = runCampaign(spec, threads);
        ASSERT_EQ(campaign.points.size(), 3u);
        EXPECT_TRUE(campaign.points[0].ok);
        EXPECT_TRUE(campaign.points[2].ok);
        ASSERT_FALSE(campaign.points[1].ok);
        EXPECT_NE(campaign.points[1].error.find(
                      "unknown workload 'does-not-exist'"),
                  std::string::npos)
            << campaign.points[1].error;
        EXPECT_EQ(campaign.failedCount(), 1u);
        // The failed point still appears in the manifest, marked so.
        const Json manifest = campaignManifest(campaign, true);
        EXPECT_FALSE(manifest.at("points").at(1).at("ok").asBool());
        EXPECT_EQ(manifest.at("campaign").at("failed_points").asU64(),
                  1u);
    }
}

TEST(Campaign, MoreThreadsThanPoints)
{
    CampaignSpec spec = smallSpec();
    spec.workloads = {"mcf"};
    spec.variants = {makeVariant(RunaheadConfig::kBaseline, false)};
    const CampaignResult campaign = runCampaign(spec, 16);
    ASSERT_EQ(campaign.points.size(), 1u);
    EXPECT_TRUE(campaign.points[0].ok);
    EXPECT_GT(campaign.points[0].result.ipc, 0.0);
}

TEST(Manifest, SchemaRoundTrip)
{
    const CampaignResult campaign = runCampaign(smallSpec(), 2);
    const Json manifest = campaignManifest(campaign, false);
    const std::string text = manifest.dump();

    // parse(dump(x)).dump() == dump(x): the schema survives a full
    // round trip byte-identically.
    const Json reparsed = Json::parse(text);
    EXPECT_EQ(reparsed.dump(), text);

    // Schema contract spot checks.
    EXPECT_EQ(reparsed.at("schema").asString(), kSweepManifestSchema);
    const Json &grid = reparsed.at("campaign");
    EXPECT_EQ(grid.at("name").asString(), "test-grid");
    EXPECT_EQ(grid.at("points").asU64(), campaign.points.size());
    const Json &env = reparsed.at("environment");
    EXPECT_GT(env.at("wall_seconds").asDouble(), 0.0);
    EXPECT_FALSE(env.at("git_sha").asString().empty());
    const Json &points = reparsed.at("points");
    ASSERT_EQ(points.size(), campaign.points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Json &p = points.at(i);
        EXPECT_EQ(p.at("index").asU64(), i);
        EXPECT_TRUE(p.at("ok").asBool());
        EXPECT_GT(p.at("metrics").at("ipc").asDouble(), 0.0);
        EXPECT_GT(p.at("metrics").at("cycles").asU64(), 0u);
        // The flattened StatGroup payload rides along per point.
        EXPECT_GT(p.at("stats").size(), 10u);
    }

    // Canonical mode drops every volatile field.
    const Json canonical =
        Json::parse(campaignManifest(campaign, true).dump());
    EXPECT_EQ(canonical.find("environment"), nullptr);
    EXPECT_EQ(canonical.at("points").at(0).find("wall_seconds"),
              nullptr);
}

TEST(Json, ValueRoundTrips)
{
    Json obj = Json::object();
    obj["s"] = "quote\" backslash\\ newline\n tab\t";
    obj["i"] = std::uint64_t{123456789};
    obj["f"] = 0.1;
    obj["neg"] = -2.5;
    obj["t"] = true;
    obj["n"] = Json();
    Json arr = Json::array();
    arr.push(1);
    arr.push("two");
    arr.push(Json::object());
    obj["a"] = std::move(arr);

    const std::string text = obj.dump();
    const Json back = Json::parse(text);
    EXPECT_EQ(back.dump(), text);
    EXPECT_EQ(back.at("s").asString(),
              "quote\" backslash\\ newline\n tab\t");
    EXPECT_EQ(back.at("i").asU64(), 123456789u);
    EXPECT_DOUBLE_EQ(back.at("f").asDouble(), 0.1);
    EXPECT_TRUE(back.at("t").asBool());
    EXPECT_TRUE(back.at("n").isNull());
    EXPECT_EQ(back.at("a").size(), 3u);
}

TEST(Json, ParseErrors)
{
    EXPECT_THROW(Json::parse("{"), JsonError);
    EXPECT_THROW(Json::parse("[1,]"), JsonError);
    EXPECT_THROW(Json::parse("{\"a\": }"), JsonError);
    EXPECT_THROW(Json::parse("12 34"), JsonError);
    EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
    EXPECT_THROW(Json::parse("nope"), JsonError);
}

TEST(Json, KeyOrderIsInsertionOrder)
{
    Json obj = Json::object();
    obj["zebra"] = 1;
    obj["alpha"] = 2;
    const std::string text = obj.dump();
    EXPECT_LT(text.find("zebra"), text.find("alpha"));
}

TEST(PerfGate, PassesAndFails)
{
    const CampaignResult campaign = runCampaign(smallSpec(), 2);
    ASSERT_EQ(campaign.failedCount(), 0u);
    const double measured = campaignCyclesPerSecond(campaign);
    ASSERT_GT(measured, 0.0);

    Json baseline = makeBaseline(campaign);
    EXPECT_EQ(baseline.at("schema").asString(), kSweepBaselineSchema);

    // Same-speed baseline: no drop, passes.
    EXPECT_TRUE(perfGate(campaign, baseline, 0.25).pass);

    // Baseline 10x faster than measured: >25% drop, fails.
    baseline["cycles_per_wall_second"] = measured * 10.0;
    const GateResult fail = perfGate(campaign, baseline, 0.25);
    EXPECT_FALSE(fail.pass);
    EXPECT_GT(fail.drop, 0.25);

    // Baseline slower than measured: improvement, passes.
    baseline["cycles_per_wall_second"] = measured / 10.0;
    EXPECT_TRUE(perfGate(campaign, baseline, 0.25).pass);

    // Malformed baseline fails closed.
    EXPECT_FALSE(perfGate(campaign, Json::object(), 0.25).pass);
}

TEST(PerfGate, FailedPointsFailTheGate)
{
    CampaignSpec spec = smallSpec();
    spec.workloads = {"does-not-exist"};
    const CampaignResult campaign = runCampaign(spec, 1);
    ASSERT_EQ(campaign.failedCount(), campaign.points.size());
    const CampaignResult good = runCampaign(smallSpec(), 1);
    const GateResult gate =
        perfGate(campaign, makeBaseline(good), 0.25);
    EXPECT_FALSE(gate.pass);
    EXPECT_NE(gate.message.find("failed"), std::string::npos);
}

TEST(PerfGate, ExitCodePrecedence)
{
    // rabsweep's exit contract: interruption (7) dominates everything
    // — a partial manifest must never be gated or promoted to a
    // baseline — and a failed gate (6) outranks failed points (5),
    // matching the historical batch behaviour (the gate itself fails
    // when points failed).
    EXPECT_EQ(resolveSweepExitCode(false, false, false), 0);
    EXPECT_EQ(resolveSweepExitCode(false, true, false), 5);
    EXPECT_EQ(resolveSweepExitCode(false, false, true), 6);
    EXPECT_EQ(resolveSweepExitCode(false, true, true), 6);
    EXPECT_EQ(resolveSweepExitCode(true, false, false), 7);
    EXPECT_EQ(resolveSweepExitCode(true, true, false), 7);
    EXPECT_EQ(resolveSweepExitCode(true, false, true), 7);
    EXPECT_EQ(resolveSweepExitCode(true, true, true), 7);
}

TEST(Campaign, MixPointsCarryChipEnergy)
{
    // Multi-core mix points must report chip-level energy in the
    // manifest (a mix point once left energy_total_j at zero) and the
    // chip's DRAM requests once, over the measured region, and the
    // payload must be deterministic. The once-per-chip static-power
    // accounting itself is certified in test_multicore, where the
    // per-core breakdowns are visible.
    CampaignSpec spec;
    spec.name = "mix-energy";
    spec.mixes = {{"duo", {"mcf", "libq"}}};
    spec.variants = {makeVariant(RunaheadConfig::kBaseline, false),
                     makeVariant(RunaheadConfig::kHybrid, false)};
    spec.instructions = 2'000;
    spec.warmup = 500;

    const CampaignResult a = runCampaign(spec, 2);
    ASSERT_EQ(a.failedCount(), 0u);
    for (const PointResult &pr : a.points) {
        EXPECT_GT(pr.result.energy.totalJ, 0.0) << pr.point.variant;
        EXPECT_GT(pr.result.energy.dramJ, 0.0) << pr.point.variant;
        ASSERT_TRUE(pr.stats.count("shared.energy.total_j"))
            << pr.point.variant;
        EXPECT_EQ(pr.stats.at("shared.energy.total_j"),
                  pr.result.energy.totalJ)
            << pr.point.variant;
        EXPECT_TRUE(pr.stats.count("shared.energy.dram_j"))
            << pr.point.variant;
        EXPECT_TRUE(pr.stats.count("shared.energy.leakage_j"))
            << pr.point.variant;
        // Summing each core's reading of the chip-wide counter would
        // count the same requests several times.
        EXPECT_EQ(static_cast<double>(pr.result.dramRequests),
                  pr.stats.at("shared.dram.reads")
                      + pr.stats.at("shared.dram.writes"))
            << pr.point.variant;
    }

    // The manifest serialises it, byte-identically across runs.
    const Json manifest = campaignManifest(a, /*canonical=*/true);
    EXPECT_GT(manifest.at("points").at(0).at("metrics")
                  .at("energy_total_j").asDouble(),
              0.0);
    const CampaignResult b = runCampaign(spec, 1);
    EXPECT_EQ(campaignManifest(b, true).dump(), manifest.dump());
}

TEST(Campaign, SeedsVaryTheWorkload)
{
    CampaignSpec spec;
    spec.name = "seeds";
    spec.workloads = {"mcf"};
    spec.variants = {makeVariant(RunaheadConfig::kBaseline, false)};
    spec.seeds = {1, 2};
    spec.instructions = 2'000;
    spec.warmup = 500;
    const CampaignResult campaign = runCampaign(spec, 2);
    ASSERT_EQ(campaign.points.size(), 2u);
    ASSERT_TRUE(campaign.points[0].ok);
    ASSERT_TRUE(campaign.points[1].ok);
    // Different seeds give different dynamic behaviour (cycle counts);
    // identical seeds would defeat the seed axis.
    EXPECT_NE(campaign.points[0].result.cycles,
              campaign.points[1].result.cycles);
}

} // namespace
} // namespace rab
