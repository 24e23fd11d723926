#include "sweep/report.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"

namespace rab
{

std::string
currentGitSha()
{
    for (const char *var : {"RAB_GIT_SHA", "GITHUB_SHA"}) {
        const char *sha = std::getenv(var);
        if (sha && *sha)
            return sha;
    }
    FILE *pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
    if (pipe) {
        char buf[128] = {};
        std::string sha;
        if (std::fgets(buf, sizeof(buf), pipe))
            sha = buf;
        ::pclose(pipe);
        while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
            sha.pop_back();
        if (!sha.empty())
            return sha;
    }
    return "unknown";
}

std::string
currentHostname()
{
    char buf[256] = {};
    if (::gethostname(buf, sizeof(buf) - 1) == 0 && buf[0])
        return buf;
    return "unknown";
}

Json
simResultJson(const SimResult &result)
{
    Json j = Json::object();
    j["instructions"] = result.instructions;
    j["cycles"] = result.cycles;
    j["ipc"] = result.ipc;
    j["mpki"] = result.mpki;
    j["mem_stall_fraction"] = result.memStallFraction;
    j["onchip_miss_fraction"] = result.fig2OnChipFraction;
    j["necessary_fraction"] = result.necessaryFraction;
    j["repeated_fraction"] = result.repeatedFraction;
    j["avg_chain_length"] = result.avgChainLength;
    j["misses_per_interval"] = result.missesPerInterval;
    j["buffer_cycle_fraction"] = result.bufferCycleFraction;
    j["chain_cache_hit_rate"] = result.chainCacheHitRate;
    j["chain_cache_exact_rate"] = result.chainCacheExactRate;
    j["hybrid_buffer_fraction"] = result.hybridBufferFraction;
    j["dram_requests"] = result.dramRequests;
    j["runahead_intervals"] = result.runaheadIntervals;
    j["faults_injected"] = result.faultsInjected;
    j["watchdog_recoveries"] = result.watchdogRecoveries;
    j["degrade_steps"] = result.degradeSteps;
    j["degrade_level"] = result.degradeLevel;
    j["energy_total_j"] = result.energy.totalJ;
    j["energy_dram_j"] = result.energy.dramJ;
    return j;
}

SimResult
simResultFromJson(const Json &json)
{
    SimResult r;
    r.instructions = json.at("instructions").asU64();
    r.cycles = json.at("cycles").asU64();
    r.ipc = json.at("ipc").asDouble();
    r.mpki = json.at("mpki").asDouble();
    r.memStallFraction = json.at("mem_stall_fraction").asDouble();
    r.fig2OnChipFraction = json.at("onchip_miss_fraction").asDouble();
    r.necessaryFraction = json.at("necessary_fraction").asDouble();
    r.repeatedFraction = json.at("repeated_fraction").asDouble();
    r.avgChainLength = json.at("avg_chain_length").asDouble();
    r.missesPerInterval = json.at("misses_per_interval").asDouble();
    r.bufferCycleFraction = json.at("buffer_cycle_fraction").asDouble();
    r.chainCacheHitRate = json.at("chain_cache_hit_rate").asDouble();
    r.chainCacheExactRate =
        json.at("chain_cache_exact_rate").asDouble();
    r.hybridBufferFraction =
        json.at("hybrid_buffer_fraction").asDouble();
    r.dramRequests = json.at("dram_requests").asU64();
    r.runaheadIntervals = json.at("runahead_intervals").asU64();
    r.faultsInjected = json.at("faults_injected").asU64();
    r.watchdogRecoveries = json.at("watchdog_recoveries").asU64();
    r.degradeSteps = json.at("degrade_steps").asU64();
    r.degradeLevel =
        static_cast<int>(json.at("degrade_level").asDouble());
    r.energy.totalJ = json.at("energy_total_j").asDouble();
    r.energy.dramJ = json.at("energy_dram_j").asDouble();
    return r;
}

Json
statsJson(const std::map<std::string, double> &stats)
{
    // One member per stat: append at the final size instead of
    // operator[]'s search, which is O(stats^2).
    Json json = Json::object();
    json.reserve(stats.size());
    for (const auto &[name, value] : stats)
        json.append(name, value);
    return json;
}

double
campaignInstructionsPerSecond(const CampaignResult &campaign)
{
    if (campaign.wallSeconds <= 0)
        return 0.0;
    return static_cast<double>(campaign.committedInstructions())
        / campaign.wallSeconds;
}

Json
campaignManifest(const CampaignResult &campaign, bool canonical)
{
    const CampaignSpec &spec = campaign.spec;

    Json manifest = Json::object();
    manifest["schema"] = kSweepManifestSchema;

    Json grid = Json::object();
    grid["name"] = spec.name;
    grid["instructions"] = spec.instructions;
    grid["warmup"] = spec.warmup;
    Json workloads = Json::array();
    for (const std::string &w : spec.workloads)
        workloads.push(w);
    grid["workloads"] = std::move(workloads);
    Json variants = Json::array();
    for (const ConfigVariant &v : spec.variants)
        variants.push(v.label);
    grid["variants"] = std::move(variants);
    Json seeds = Json::array();
    for (const std::uint64_t s : spec.seeds)
        seeds.push(s);
    grid["seeds"] = std::move(seeds);
    if (!spec.mixes.empty()) {
        Json mixes = Json::array();
        for (const CoreMixSpec &mix : spec.mixes) {
            Json m = Json::object();
            m["label"] = mix.label;
            Json cores = Json::array();
            for (const std::string &w : mix.workloads)
                cores.push(w);
            m["workloads"] = std::move(cores);
            mixes.push(std::move(m));
        }
        grid["mixes"] = std::move(mixes);
    }
    grid["points"] = spec.pointCount();
    grid["failed_points"] = campaign.failedCount();
    grid["interrupted"] = campaign.interrupted;
    grid["skipped_points"] = campaign.skippedCount();
    manifest["campaign"] = std::move(grid);

    if (!canonical) {
        Json env = Json::object();
        env["git_sha"] = currentGitSha();
        env["hostname"] = currentHostname();
        env["hardware_threads"] =
            static_cast<std::uint64_t>(std::thread::hardware_concurrency());
        env["threads"] = campaign.threads;
        env["wall_seconds"] = campaign.wallSeconds;
        env["committed_instructions"] = campaign.committedInstructions();
        env["instructions_per_wall_second"] =
            campaignInstructionsPerSecond(campaign);
        // Result-store traffic: which points were cache hits varies
        // between a straight-line run and a resumed one, so all of it
        // stays out of the canonical byte-diff surface.
        env["store_hits"] = campaign.storeHits;
        env["store_misses"] = campaign.storeMisses;
        env["store_corrupt_discarded"] = campaign.storeCorrupt;
        env["store_snapshot_hits"] = campaign.storeSnapshotHits;
        env["store_snapshot_misses"] = campaign.storeSnapshotMisses;
        manifest["environment"] = std::move(env);
    }

    Json points = Json::array();
    points.reserve(campaign.points.size());
    for (const PointResult &p : campaign.points)
        points.push(pointJson(p, canonical));
    manifest["points"] = std::move(points);
    return manifest;
}

Json
pointJson(const PointResult &p, bool canonical)
{
    Json entry = Json::object();
    entry["index"] = p.point.index;
    entry["workload"] = p.point.workload;
    entry["variant"] = p.point.variant;
    entry["seed"] = p.point.seed;
    if (p.point.isMix()) {
        entry["cores"] =
            static_cast<std::uint64_t>(p.point.mixWorkloads.size());
        Json mix = Json::array();
        for (const std::string &w : p.point.mixWorkloads)
            mix.push(w);
        entry["mix_workloads"] = std::move(mix);
    }
    entry["ok"] = p.ok;
    if (!p.ok) {
        entry["error"] = p.error;
    } else {
        entry["metrics"] = simResultJson(p.result);
        entry["stats"] = statsJson(p.stats);
    }
    if (!canonical) {
        entry["wall_seconds"] = p.wallSeconds;
        entry["cached"] = p.cached;
        // Shared-image and per-point-image arms produce the same
        // canonical document; which points actually forked is
        // execution provenance, like `cached`.
        entry["snapshot_warmed"] = p.snapshotWarmed;
    }
    return entry;
}

PointResult
pointFromJson(const Json &json)
{
    PointResult p;
    p.point.index = json.at("index").asU64();
    p.point.workload = json.at("workload").asString();
    p.point.variant = json.at("variant").asString();
    p.point.seed = json.at("seed").asU64();
    if (const Json *mix = json.find("mix_workloads")) {
        for (const Json &w : mix->elements())
            p.point.mixWorkloads.push_back(w.asString());
    }
    p.ok = json.at("ok").asBool();
    if (!p.ok) {
        p.error = json.at("error").asString();
    } else {
        p.result = simResultFromJson(json.at("metrics"));
        for (const auto &[name, value] : json.at("stats").members())
            p.stats.emplace_hint(p.stats.end(), name, value.asDouble());
    }
    p.wallSeconds = json.at("wall_seconds").asDouble();
    return p;
}

Json
makeBaseline(const CampaignResult &campaign)
{
    Json baseline = Json::object();
    baseline["schema"] = kSweepBaselineSchema;
    baseline["campaign"] = campaign.spec.name;
    baseline["instructions_per_wall_second"] =
        campaignInstructionsPerSecond(campaign);
    baseline["threads"] = campaign.threads;
    baseline["git_sha"] = currentGitSha();
    baseline["hostname"] = currentHostname();
    // Named after the campaign so every pinned baseline file carries
    // its own regeneration recipe (smoke predates the naming scheme).
    const std::string file = campaign.spec.name == "smoke"
        ? "bench/baseline.json"
        : "bench/baseline-" + campaign.spec.name + ".json";
    baseline["regenerate"] = "./build/examples/rabsweep --preset "
        + campaign.spec.name + " --threads 2 --write-baseline " + file;
    return baseline;
}

GateResult
perfGate(const CampaignResult &campaign, const Json &baseline,
         double max_drop)
{
    GateResult gate;
    gate.measured = campaignInstructionsPerSecond(campaign);
    try {
        if (baseline.at("schema").asString() != kSweepBaselineSchema) {
            gate.message = "baseline has unknown schema '"
                + baseline.at("schema").asString() + "'";
            return gate;
        }
        gate.baseline =
            baseline.at("instructions_per_wall_second").asDouble();
    } catch (const JsonError &e) {
        gate.message = std::string("malformed baseline: ") + e.what();
        return gate;
    }
    if (gate.baseline <= 0) {
        gate.message = "baseline throughput is not positive";
        return gate;
    }
    if (campaign.failedCount() > 0) {
        gate.message = strprintf("%zu campaign point(s) failed",
                                 campaign.failedCount());
        return gate;
    }
    if (campaign.committedInstructions() == 0) {
        gate.message = "no point was simulated (all served from the "
                       "store): no throughput to gate";
        return gate;
    }
    gate.drop = 1.0 - gate.measured / gate.baseline;
    gate.pass = gate.drop <= max_drop;
    gate.message = strprintf(
        "throughput %.3g committed instructions/s vs baseline %.3g "
        "(%+.1f%%; gate fails below -%.0f%%)",
        gate.measured, gate.baseline, -gate.drop * 100.0,
        max_drop * 100.0);
    return gate;
}

int
resolveSweepExitCode(bool interrupted, bool failed_points,
                     bool gate_failed)
{
    if (interrupted)
        return 7;
    if (gate_failed)
        return 6;
    if (failed_points)
        return 5;
    return 0;
}

bool
writeJsonFile(const std::string &path, const Json &document)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    document.write(out);
    return static_cast<bool>(out);
}

Json
readJsonFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw JsonError("cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return Json::parse(buffer.str());
}

} // namespace rab
