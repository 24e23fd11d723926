/**
 * @file
 * Machine-readable campaign reports and the CI perf-regression gate.
 *
 * campaignManifest() turns a finished CampaignResult into the
 * rab-sweep-manifest-v1 JSON document (BENCH_sweep.json): the grid
 * declaration, per-point metrics + flattened StatGroup payloads, and
 * an environment section (git SHA, host, threads, wall time,
 * committed-instructions-per-wall-second throughput).
 *
 * Canonical mode omits every volatile field (the environment section
 * and per-point wall times), leaving a document that is byte-identical
 * across runs, hosts and thread counts — what the determinism test
 * compares and what diffs cleanly in CI.
 *
 * The perf gate compares a manifest's throughput against a checked-in
 * baseline (bench/baseline.json, rab-sweep-baseline-v2) and fails on a
 * configurable relative drop; see DESIGN.md §9.
 */

#ifndef RAB_SWEEP_REPORT_HH
#define RAB_SWEEP_REPORT_HH

#include <map>
#include <string>

#include "stats/json.hh"
#include "sweep/campaign.hh"

namespace rab
{

/** Manifest schema identifiers. */
inline constexpr const char *kSweepManifestSchema =
    "rab-sweep-manifest-v1";
inline constexpr const char *kSweepBaselineSchema =
    "rab-sweep-baseline-v2";

/** Current git SHA: $RAB_GIT_SHA / $GITHUB_SHA, else `git rev-parse`,
 *  else "unknown". */
std::string currentGitSha();

/** Host name, or "unknown". */
std::string currentHostname();

/** SimResult as a flat JSON object of metric fields. */
Json simResultJson(const SimResult &result);

/** A stat payload (Simulation::statPayload()) as a flat JSON object
 *  of dotted names in name order: a manifest point's "stats". */
Json statsJson(const std::map<std::string, double> &stats);

/**
 * Inverse of simResultJson over the fields it serialises (workload /
 * config identity lives on the manifest point entry, not here).
 * parse(simResultJson(r)) re-dumps byte-identically — the property
 * the result store's resume guarantee rests on. Throws JsonError.
 */
SimResult simResultFromJson(const Json &json);

/** Build the manifest. @p canonical omits volatile fields. */
Json campaignManifest(const CampaignResult &campaign,
                      bool canonical = false);

/**
 * One manifest point: identity, ok and error or metrics and stats,
 * and, unless @p canonical, wall time and provenance. The result
 * store keeps this object as a record's body, so a resumed manifest
 * matches a straight-line one by construction.
 */
Json pointJson(const PointResult &point, bool canonical);

/**
 * Inverse of pointJson(p, false) over identity, ok/error, metrics,
 * stats and wall time; ran, cached and snapshotWarmed stay false.
 * Throws JsonError.
 */
PointResult pointFromJson(const Json &json);

/** Aggregate throughput: committed instructions of the points this
 *  run simulated (CampaignResult::committedInstructions) per wall
 *  second. Not simulated cycles: fast-forward skips cycles without
 *  ticking them, so a config that stalls more would look faster. Store
 *  hits are not throughput: a run served wholly from the store reads
 *  0. */
double campaignInstructionsPerSecond(const CampaignResult &campaign);

/** Baseline document for the perf gate. */
Json makeBaseline(const CampaignResult &campaign);

/** Outcome of a perf-gate comparison. */
struct GateResult
{
    bool pass = false;
    double measured = 0;  ///< instructions/wall-second this run.
    double baseline = 0;  ///< instructions/wall-second in the baseline.
    double drop = 0;      ///< Relative drop (negative = faster).
    std::string message;  ///< One-line human summary.
};

/**
 * Gate @p campaign against a parsed baseline document. Fails when
 * throughput dropped more than @p max_drop (0.25 = 25%) below the
 * baseline, when any point failed, when the run simulated no point
 * (every point a store hit: no throughput to gate), or when the
 * baseline is malformed.
 */
GateResult perfGate(const CampaignResult &campaign,
                    const Json &baseline, double max_drop);

/**
 * rabsweep's exit-code precedence, in one auditable place.
 * Interruption dominates everything: a partial manifest must never be
 * gated (a verdict over a cut-short grid is meaningless) nor promoted
 * to a baseline, so 7 wins over both the failed-points code (5) and
 * the gate verdict (6). A failed gate in turn outranks failed points,
 * matching the historical batch-mode behaviour.
 *
 * @return 7 interrupted | 6 gate failed | 5 points failed | 0 ok.
 */
int resolveSweepExitCode(bool interrupted, bool failed_points,
                         bool gate_failed);

/** Write @p document to @p path; returns false on I/O error. */
bool writeJsonFile(const std::string &path, const Json &document);

/** Read and parse a JSON file; throws JsonError on parse or I/O
 *  failure. */
Json readJsonFile(const std::string &path);

} // namespace rab

#endif // RAB_SWEEP_REPORT_HH
