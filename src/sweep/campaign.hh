/**
 * @file
 * Parallel sweep-campaign engine.
 *
 * Every paper figure is a grid of independent (workload x SimConfig x
 * seed) simulation points — embarrassingly parallel work (one campaign
 * serves them all: sweep/figures). A CampaignSpec declares such a grid;
 * runCampaign() expands it in deterministic grid order, executes each
 * point as an isolated Simulation on a fixed-size thread pool whose
 * workers claim points in grid order from one shared index, and
 * merges the results back in grid order regardless of completion
 * order. The merged output is certified
 * byte-identical across thread counts by tests/test_sweep.cc.
 *
 * One path per point: runCampaign calls runPoint once per point, and
 * runPoint builds the point's config from (spec, point) alone, so the
 * store key and the warmup digest describe every run exactly. The
 * simulator is deterministic, so nothing is retried: each point runs
 * under its own try/catch, and one that dies (an escaped
 * InvariantViolation, a bad spec entry, a warmup image that cannot be
 * built or restored) is marked failed with a diagnostic string while
 * the rest of the campaign completes.
 *
 * Thread safety: a Simulation is self-contained (per-instance RNGs,
 * freshly constructed components, stat groups asserted un-aliased via
 * StatGroup::claimExclusive), so points share nothing but read-only
 * spec data.
 */

#ifndef RAB_SWEEP_CAMPAIGN_HH
#define RAB_SWEEP_CAMPAIGN_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/sim_config.hh"
#include "core/simulation.hh"

namespace rab
{

class ResultStore; // sweep/store/result_store.hh

/** One named runahead/prefetch configuration axis entry. */
struct ConfigVariant
{
    std::string label; ///< e.g. "Hybrid+PF"; unique within a campaign.
    RunaheadConfig runahead = RunaheadConfig::kBaseline;
    bool prefetch = false;

    /** Per-core policy override for multi-core mix points (the
     *  interference axis). Empty: every core runs `runahead`. Parsed
     *  from '|'-joined labels, e.g. "hybrid|baseline|baseline". Core i
     *  runs corePolicies[i % size] (SimConfig::corePolicy). */
    std::vector<RunaheadConfig> corePolicies;
};

/** Label a (config, prefetch) pair as tables print it: the config's
 *  display name, with "+PF" when the prefetcher is on. */
ConfigVariant makeVariant(RunaheadConfig config, bool prefetch);

/**
 * Parse a CLI config label — "baseline", "runahead",
 * "runahead-enhanced", "buffer", "buffer-cc", "hybrid", "cre" or
 * "cre-hybrid", each with an optional "+pf" suffix — into a variant.
 * A '|'-joined label ("hybrid|baseline") assigns a policy per core of
 * a multi-core mix point; the first segment is the variant's headline
 * config, and any segment's "+pf" suffix enables the (chip-wide)
 * prefetcher. Throws std::runtime_error on an unknown name.
 */
ConfigVariant parseVariantLabel(const std::string &label);

/** A named multi-core workload mix (one core per entry). */
struct CoreMixSpec
{
    std::string label;                  ///< e.g. "mix4".
    std::vector<std::string> workloads; ///< Suite name per core.
};

/** The headline 4-core interference mix: one high-MPKI pointer
 *  chaser (mcf), one streaming (libq), one chain-heavy gather
 *  (omnetpp) and one compute-bound (h264) workload. */
CoreMixSpec makeMix4();

/** Parse "label=w0,w1,..." or bare "w0,w1,..." (label joins the
 *  workloads with '+') into a mix. Throws std::runtime_error when no
 *  workload is given. */
CoreMixSpec parseMixSpec(const std::string &text);

/** A declarative workloads x variants x seeds grid. Its knobs reach
 *  each point's SimConfig through pointConfig(), and the store key
 *  hashes that SimConfig's machine and variant fields, so a knob
 *  that lands in one is keyed with no store change. */
struct CampaignSpec
{
    std::string name = "campaign";

    std::vector<std::string> workloads;   ///< Suite workload names.
    std::vector<ConfigVariant> variants;  ///< Config axis.
    std::vector<std::uint64_t> seeds{0};  ///< 0: workload default seed.

    /** Multi-core mix axis, expanded after `workloads` (each mix x
     *  variants x seeds). A mix point runs a Simulation with one
     *  core per mix entry sharing the LLC/MSHRs/DRAM; its variant's
     *  corePolicies (when set) give each core its own runahead
     *  policy. */
    std::vector<CoreMixSpec> mixes;

    std::uint64_t instructions = 40'000;
    std::uint64_t warmup = 10'000;
    CheckLevel checkLevel = CheckLevel::kOff;

    /**
     * Snapshotted warmup: warm each (per-core workloads, seed,
     * prefetch) group once under the baseline policy on every core,
     * capture a whole-simulator snapshot at the warmup boundary, and
     * fork every config variant of the group from that shared image
     * instead of re-running its own warmup. A mix point's group is its
     * chip: the image holds every core and the shared memory. Amortizes
     * warmup across the variant axis (the bulk of a sweep's redundant
     * work) and, with a result store attached, across campaigns and
     * processes via cached snapshot records.
     *
     * Snapshot-warmed results are a distinct result universe from
     * inline-warmed ones (the warmup ran under the baseline policy,
     * not the variant's own), so the store keys them separately (the
     * config key's snapshot= line). A point whose
     * group image cannot be built or restored fails; it never warms
     * inline instead, which would move it into the other universe.
     */
    bool snapshotWarmup = false;

    std::size_t pointCount() const;
};

/** One expanded grid point. */
struct SweepPoint
{
    std::size_t index = 0; ///< Position in grid order.
    std::string workload;  ///< Suite name, or the mix label.
    std::string variant;
    RunaheadConfig runahead = RunaheadConfig::kBaseline;
    bool prefetch = false;
    std::uint64_t seed = 0;

    /** @{ Multi-core mix points only (empty otherwise): one workload
     *  per core, and the variant's per-core policy override. */
    std::vector<std::string> mixWorkloads;
    std::vector<RunaheadConfig> corePolicies;
    /** @} */

    bool isMix() const { return !mixWorkloads.empty(); }
};

/**
 * Expand the grid in deterministic order: workload-major, then
 * variant, then seed; mix points follow the single-core workloads in
 * the same variant/seed order. This order defines point indices,
 * result order and the manifest layout, independent of execution
 * schedule.
 */
std::vector<SweepPoint> expandGrid(const CampaignSpec &spec);

/** Outcome of one point. */
struct PointResult
{
    SweepPoint point;
    bool ok = false;
    std::string error; ///< Diagnostic when !ok.
    SimResult result;  ///< Valid only when ok.
    /** The point's Simulation::statPayload() (dotted names). */
    std::map<std::string, double> stats;
    double wallSeconds = 0;
    bool ran = false;    ///< False: interrupted before this point ran.
    bool cached = false; ///< Served from the result store.
    /** Resumed from a warmup snapshot (false: the spec warms
     *  inline). */
    bool snapshotWarmed = false;
};

/** A finished campaign: points in grid order, always complete. */
struct CampaignResult
{
    CampaignSpec spec;
    int threads = 1;
    double wallSeconds = 0;
    std::vector<PointResult> points;
    /** Stopped early by the stop flag: not every point ran. */
    bool interrupted = false;

    /** @{ Result-store traffic (zero when no store was attached). */
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t storeCorrupt = 0;
    std::uint64_t storeSnapshotHits = 0;
    std::uint64_t storeSnapshotMisses = 0;
    /** @} */

    std::size_t failedCount() const;
    /** Points never executed because the campaign was interrupted. */
    std::size_t skippedCount() const;
    /** Sum of committed instructions over the points this run
     *  simulated: successful and not served from the store. */
    std::uint64_t committedInstructions() const;
};

/**
 * Execution environment for runCampaign beyond the spec itself: all
 * optional, all observed on worker threads.
 */
struct CampaignRunOptions
{
    /**
     * Consult this store before simulating each point and persist
     * fresh ok results into it — the mechanism that makes campaigns
     * resumable (the store is the checkpoint).
     */
    ResultStore *store = nullptr;

    /**
     * Cooperative stop flag (set by a SIGINT handler). Once true,
     * workers finish their in-flight point but claim no new ones; the
     * campaign returns with interrupted == true and un-run points
     * marked !ran.
     */
    const std::atomic<bool> *stop = nullptr;

    /**
     * Per-completed-point callback, invoked under an internal mutex
     * (serialised) as soon as each point finishes, in completion
     * order, after a fresh result has been persisted to the store.
     */
    std::function<void(const PointResult &point)> onPoint;
};

/**
 * Run every point of @p spec. @p threads <= 1 runs serially on the
 * calling thread (the reference the determinism test compares
 * against); otherwise a pool of min(threads, points) workers claims
 * points in grid order from one atomic index. Results are merged in
 * grid order either way.
 */
CampaignResult runCampaign(const CampaignSpec &spec, int threads);

/** As above with a store / stop flag / per-point callback. */
CampaignResult runCampaign(const CampaignSpec &spec, int threads,
                           const CampaignRunOptions &options);

/**
 * The config @p point runs under with runahead policy @p runahead:
 * the point's prefetch setting and mix shape plus every spec-level
 * knob; a knob the spec does not name keeps its SimConfig default.
 * The one place a CampaignSpec becomes a SimConfig, so a point, the
 * warmup image it forks from and its store key agree: runPoint and
 * the store key pass the point's own policy, warmup images the
 * baseline.
 */
SimConfig pointConfig(const CampaignSpec &spec, const SweepPoint &point,
                      RunaheadConfig runahead);

/**
 * Run one point under the config (spec, point) names. When
 * @p warmup_image is non-null (a captureSnapshot payload of a warmed
 * baseline-policy simulation of the point's workloads/seed/prefetch
 * group), the point's simulation fork-restores from it and runs only
 * the measured region; a SnapshotError fails the point with the
 * error's text (snapshotWarmed stays false).
 */
PointResult runPoint(const CampaignSpec &spec, const SweepPoint &point,
                     const std::string *warmup_image = nullptr);

/**
 * Warm one simulation of @p point's (per-core workloads, seed,
 * prefetch) group, with the baseline policy on every core, under
 * @p spec's budgets and capture it — the image every variant of the
 * group forks from. The programs are runPoint's. Throws on any build,
 * run or capture failure. runCampaign shares one image per group,
 * and a group whose build throws fails all its points.
 */
std::string buildWarmupImage(const CampaignSpec &spec,
                             const SweepPoint &point);

/** Store-key id of a warmup image: "<format-version>/<content-hash>",
 *  the pair that makes a config key's snapshot= line
 *  self-invalidating. */
std::string warmupSnapshotId(const std::string &payload);

} // namespace rab

#endif // RAB_SWEEP_CAMPAIGN_HH
