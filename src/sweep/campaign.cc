#include "sweep/campaign.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "checker/invariant_checker.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "snapshot/snapshot.hh"
#include "sweep/report.hh"
#include "sweep/store/result_store.hh"
#include "workloads/suite.hh"

namespace rab
{

ConfigVariant
makeVariant(RunaheadConfig config, bool prefetch)
{
    ConfigVariant v;
    v.label = std::string(runaheadConfigName(config))
        + (prefetch ? "+PF" : "");
    v.runahead = config;
    v.prefetch = prefetch;
    return v;
}

ConfigVariant
parseVariantLabel(const std::string &label)
{
    // '|'-joined labels assign one policy per core of a mix point.
    if (label.find('|') != std::string::npos) {
        ConfigVariant v;
        v.label = label;
        std::string segment;
        std::stringstream ss(label);
        while (std::getline(ss, segment, '|')) {
            if (segment.empty())
                throw std::runtime_error("empty core policy in '"
                                         + label + "'");
            const ConfigVariant core = parseVariantLabel(segment);
            v.corePolicies.push_back(core.runahead);
            v.prefetch = v.prefetch || core.prefetch;
        }
        v.runahead = v.corePolicies.front();
        return v;
    }

    std::string name = label;
    bool prefetch = false;
    const std::size_t suffix = name.rfind("+pf");
    if (suffix != std::string::npos && suffix == name.size() - 3) {
        prefetch = true;
        name.resize(suffix);
    }
    const std::optional<RunaheadConfig> config = parseRunaheadConfig(name);
    if (!config)
        throw std::runtime_error("unknown config '" + label + "'");
    return makeVariant(*config, prefetch);
}

CoreMixSpec
makeMix4()
{
    CoreMixSpec mix;
    mix.label = "mix4";
    mix.workloads = {"mcf", "libq", "omnetpp", "h264"};
    return mix;
}

CoreMixSpec
parseMixSpec(const std::string &text)
{
    CoreMixSpec mix;
    std::string list = text;
    const std::size_t eq = text.find('=');
    if (eq != std::string::npos) {
        mix.label = text.substr(0, eq);
        list = text.substr(eq + 1);
    }
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            mix.workloads.push_back(item);
    }
    if (mix.workloads.empty())
        throw std::runtime_error("empty mix spec '" + text + "'");
    if (mix.label.empty()) {
        for (const std::string &w : mix.workloads)
            mix.label += (mix.label.empty() ? "" : "+") + w;
    }
    return mix;
}

std::size_t
CampaignSpec::pointCount() const
{
    return (workloads.size() + mixes.size()) * variants.size()
        * seeds.size();
}

std::vector<SweepPoint>
expandGrid(const CampaignSpec &spec)
{
    std::vector<SweepPoint> points;
    points.reserve(spec.pointCount());
    const auto expand_variants = [&](const std::string &workload,
                                     const CoreMixSpec *mix) {
        for (const ConfigVariant &variant : spec.variants) {
            for (const std::uint64_t seed : spec.seeds) {
                SweepPoint p;
                p.index = points.size();
                p.workload = workload;
                p.variant = variant.label;
                p.runahead = variant.runahead;
                p.prefetch = variant.prefetch;
                p.seed = seed;
                if (mix) {
                    p.mixWorkloads = mix->workloads;
                    p.corePolicies = variant.corePolicies;
                }
                points.push_back(std::move(p));
            }
        }
    };
    for (const std::string &workload : spec.workloads)
        expand_variants(workload, nullptr);
    for (const CoreMixSpec &mix : spec.mixes)
        expand_variants(mix.label, &mix);
    return points;
}

std::size_t
CampaignResult::failedCount() const
{
    std::size_t failed = 0;
    for (const PointResult &p : points)
        failed += p.ok ? 0 : 1;
    return failed;
}

std::size_t
CampaignResult::skippedCount() const
{
    std::size_t skipped = 0;
    for (const PointResult &p : points)
        skipped += p.ran ? 0 : 1;
    return skipped;
}

std::uint64_t
CampaignResult::committedInstructions() const
{
    std::uint64_t instructions = 0;
    for (const PointResult &p : points) {
        if (p.ok && !p.cached)
            instructions += p.result.instructions;
    }
    return instructions;
}

namespace
{

/** Suite workload @p name under @p seed (0 = workload default). */
Program
buildPointWorkload(const std::string &name, std::uint64_t seed)
{
    const WorkloadSpec *workload = findWorkload(name);
    if (!workload)
        throw std::runtime_error("unknown workload '" + name + "'");
    WorkloadParams params = workload->params;
    if (seed != 0)
        params.seed = seed;
    return buildWorkload(params);
}

/**
 * Config a warmup image for @p point's group is captured under: the
 * baseline policy, so the image is fork-safe (warmup never enters a
 * runahead interval). Variant-specific policy is deliberately absent:
 * it is exactly what each fork re-derives.
 */
SimConfig
warmupImageConfig(const CampaignSpec &spec, const SweepPoint &point)
{
    return pointConfig(spec, point, RunaheadConfig::kBaseline);
}

} // namespace

SimConfig
pointConfig(const CampaignSpec &spec, const SweepPoint &point,
            RunaheadConfig runahead)
{
    SimConfig config = makeConfig(runahead, point.prefetch);
    config.instructions = spec.instructions;
    config.warmupInstructions = spec.warmup;
    config.checkLevel = spec.checkLevel;
    config.fastForward = spec.fastForward;
    if (point.isMix()) {
        config.numCores = static_cast<int>(point.mixWorkloads.size());
        config.corePolicies = point.corePolicies;
    }
    config.finalize();
    return config;
}

std::string
buildWarmupImage(const CampaignSpec &spec, const SweepPoint &point)
{
    Simulation sim(warmupImageConfig(spec, point),
                   buildPointWorkload(point.workload, point.seed));
    sim.runWarmup();
    return captureSnapshot(sim);
}

std::string
warmupSnapshotId(const std::string &payload)
{
    return strprintf(
        "%lu/%s", (unsigned long)kSnapshotFormatVersion,
        hex64(snapshotContentHash(payload)).c_str());
}

PointResult
runPoint(const CampaignSpec &spec, const SweepPoint &point,
         const std::string *warmup_image)
{
    PointResult pr;
    pr.point = point;
    // rablint: nondeterminism-ok (per-point wall-time reporting;
    // wallSeconds never feeds simulated state or manifest ordering)
    const auto start = std::chrono::steady_clock::now();
    try {
        // One program per core: the mix's workloads, or the point's.
        const std::vector<std::string> single = {point.workload};
        std::vector<Program> programs;
        for (const std::string &name :
             point.isMix() ? point.mixWorkloads : single)
            programs.push_back(buildPointWorkload(name, point.seed));

        Simulation sim(pointConfig(spec, point, point.runahead),
                       std::move(programs));
        if (warmup_image) {
            restoreSnapshot(sim, *warmup_image,
                            SnapshotRestoreMode::kFork);
            pr.snapshotWarmed = true;
        }
        pr.result = warmup_image ? sim.runMeasured() : sim.run();
        pr.stats = sim.statPayload();
        pr.ok = true;
    } catch (const InvariantViolation &e) {
        pr.error = strprintf("InvariantViolation in '%s': %s",
                             e.module().c_str(), e.what());
    } catch (const std::exception &e) {
        pr.error = std::string("error: ") + e.what();
    }
    pr.wallSeconds = std::chrono::duration<double>(
                         // rablint: nondeterminism-ok (same reporting)
                         std::chrono::steady_clock::now() - start)
                         .count();
    pr.ran = true;
    return pr;
}

namespace
{

/**
 * Thread-safe cache of shared warmup images, one per (workload, seed,
 * prefetch) group of single-core points: the engine behind
 * CampaignSpec::snapshotWarmup. The first worker to reach a group
 * builds its image — consulting / feeding the result store's snapshot
 * records when one is attached — while the group's other points block
 * on the warmup they are about to reuse.
 */
class WarmupImageCache
{
  public:
    /** A group's image, or why it could not be built. */
    struct Image
    {
        std::string payload; ///< captureSnapshot image.
        std::string id;      ///< warmupSnapshotId(payload).
        std::string error;   ///< Build failure; "" when built.
    };

    /** @p store (may be null) caches images across processes under
     *  code identity @p git_sha. */
    WarmupImageCache(ResultStore *store, std::string git_sha)
        : store_(store), gitSha_(std::move(git_sha))
    {
    }

    /**
     * The image for @p point's group under @p spec, building it on
     * first request. A failed build is tried once per group: its
     * error stays in the image and fails every point of the group.
     * The reference stays valid for the cache's lifetime.
     */
    const Image &get(const CampaignSpec &spec, const SweepPoint &point);

  private:
    struct Group
    {
        std::mutex mutex;
        bool built = false;
        Image image;
    };

    ResultStore *store_;
    std::string gitSha_;
    std::mutex mutex_; ///< Guards the map's shape, not the groups.
    std::map<std::tuple<std::string, std::uint64_t, bool>,
             std::unique_ptr<Group>>
        groups_;
};

const WarmupImageCache::Image &
WarmupImageCache::get(const CampaignSpec &spec, const SweepPoint &point)
{
    Group *g = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &slot = groups_[std::make_tuple(point.workload, point.seed,
                                             point.prefetch)];
        if (!slot)
            slot = std::make_unique<Group>();
        g = slot.get();
    }

    std::lock_guard<std::mutex> lock(g->mutex);
    Image &image = g->image;
    if (!g->built) {
        g->built = true;
        try {
            SnapshotStoreKey skey;
            bool from_store = false;
            if (store_) {
                skey.gitSha = gitSha_;
                skey.warmupDigestHex = hex64(snapshotWarmupDigest(
                    warmupImageConfig(spec, point)));
                skey.workload = point.workload;
                skey.seed = point.seed;
                skey.warmupInstructions = spec.warmup;
                skey.formatVersion = kSnapshotFormatVersion;
                if (auto payload = store_->lookupSnapshot(skey)) {
                    image.payload = std::move(*payload);
                    from_store = true;
                }
            }
            if (!from_store) {
                image.payload = buildWarmupImage(spec, point);
                if (store_)
                    store_->putSnapshot(skey, image.payload);
            }
            image.id = warmupSnapshotId(image.payload);
        } catch (const std::exception &e) {
            image.payload.clear();
            image.error = strprintf(
                "error: warmup image build failed for '%s' seed %llu: %s",
                point.workload.c_str(), (unsigned long long)point.seed,
                e.what());
        }
    }
    return image;
}

} // namespace

CampaignResult
runCampaign(const CampaignSpec &spec, int threads)
{
    return runCampaign(spec, threads, CampaignRunOptions{});
}

CampaignResult
runCampaign(const CampaignSpec &spec, int threads,
            const CampaignRunOptions &options)
{
    // rablint: nondeterminism-ok (campaign wall-time reporting only)
    const auto start = std::chrono::steady_clock::now();
    const std::vector<SweepPoint> grid = expandGrid(spec);

    CampaignResult campaign;
    campaign.spec = spec;
    campaign.threads = threads < 1 ? 1 : threads;
    campaign.points.resize(grid.size());

    ResultStore *store = options.store;
    const std::string git_sha = store ? currentGitSha() : "";
    const std::uint64_t hits0 = store ? store->hits() : 0;
    const std::uint64_t misses0 = store ? store->misses() : 0;
    const std::uint64_t corrupt0 = store ? store->corruptDiscarded() : 0;
    const std::uint64_t snap_hits0 = store ? store->snapshotHits() : 0;
    const std::uint64_t snap_misses0 =
        store ? store->snapshotMisses() : 0;

    // One shared warmup image per (workload, seed, prefetch) group of
    // single-core points; built lazily by whichever worker reaches
    // the group first.
    WarmupImageCache warmup_cache(store, git_sha);

    const std::atomic<bool> *stop = options.stop;
    const auto stopped = [stop] { return stop && stop->load(); };
    std::mutex stream_mutex; // serialises options.onPoint calls

    // One point, store-first: cached results short-circuit the
    // simulation; fresh ok results are persisted before onPoint
    // reports them, so a kill arriving mid-campaign can never lose a
    // point that was already reported.
    const auto run_index = [&](std::size_t index) {
        const SweepPoint &point = grid[index];
        const WarmupImageCache::Image *image =
            spec.snapshotWarmup && !point.isMix()
            ? &warmup_cache.get(spec, point)
            : nullptr;

        PointResult pr;
        if (image && !image->error.empty()) {
            pr.point = point;
            pr.error = image->error;
            pr.ran = true;
        } else if (store) {
            const StoreKey key = makeStoreKey(spec, point, git_sha,
                                              image ? image->id : "");
            if (auto cached = store->lookup(key)) {
                pr = std::move(*cached);
                pr.point = point; // re-anchor to this grid's index
                pr.snapshotWarmed = image != nullptr;
            } else {
                pr = runPoint(spec, point,
                              image ? &image->payload : nullptr);
                if (pr.ok)
                    store->put(key, pr);
            }
        } else {
            pr = runPoint(spec, point, image ? &image->payload : nullptr);
        }
        if (options.onPoint) {
            std::lock_guard<std::mutex> lock(stream_mutex);
            options.onPoint(pr);
        }
        campaign.points[index] = std::move(pr);
    };

    if (campaign.threads <= 1 || grid.size() <= 1) {
        // Serial reference path: no threads, same per-point code.
        for (const SweepPoint &point : grid) {
            if (stopped())
                break;
            run_index(point.index);
        }
    } else {
        const std::size_t workers =
            std::min<std::size_t>(campaign.threads, grid.size());
        // Workers claim points in grid order from one shared index, so
        // an idle worker always takes the next unclaimed point. Each
        // writes only the campaign.points[index] slots it claimed —
        // disjoint, so the joins below are the only sync.
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            pool.emplace_back([&] {
                // The stop flag gates claiming, not completion: an
                // in-flight point always finishes and is flushed.
                while (!stopped()) {
                    const std::size_t index = next.fetch_add(1);
                    if (index >= grid.size())
                        break;
                    run_index(index);
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
    }

    campaign.interrupted = stopped();
    for (std::size_t i = 0; i < campaign.points.size(); ++i) {
        PointResult &p = campaign.points[i];
        if (!p.ran) {
            p.point = grid[i];
            p.error = "interrupted: point not run";
        }
    }
    if (store) {
        campaign.storeHits = store->hits() - hits0;
        campaign.storeMisses = store->misses() - misses0;
        campaign.storeCorrupt = store->corruptDiscarded() - corrupt0;
        campaign.storeSnapshotHits = store->snapshotHits() - snap_hits0;
        campaign.storeSnapshotMisses =
            store->snapshotMisses() - snap_misses0;
    }

    campaign.wallSeconds = std::chrono::duration<double>(
                               // rablint: nondeterminism-ok (ditto)
                               std::chrono::steady_clock::now() - start)
                               .count();
    return campaign;
}

} // namespace rab
