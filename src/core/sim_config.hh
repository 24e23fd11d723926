/**
 * @file
 * Top-level simulation configuration: the Table 1 system plus the named
 * runahead configurations the paper evaluates.
 */

#ifndef RAB_CORE_SIM_CONFIG_HH
#define RAB_CORE_SIM_CONFIG_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "backend/core.hh"
#include "checker/check_level.hh"
#include "energy/energy_model.hh"
#include "fault/fault_injector.hh"
#include "memory/memory_system.hh"

namespace rab
{

/** The runahead systems evaluated in Section 6. */
enum class RunaheadConfig
{
    kBaseline,         ///< No runahead.
    kRunahead,         ///< Traditional runahead (performance-optimised).
    kRunaheadEnhanced, ///< Traditional + Section 4.6 enhancements.
    kRunaheadBuffer,   ///< Runahead buffer only.
    kRunaheadBufferCC, ///< Runahead buffer + chain cache.
    kHybrid,           ///< Fig. 8 hybrid policy.
    kCRE,              ///< Continuous Runahead engine (dissertation).
    kCREHybrid,        ///< Hybrid policy + continuous engine.
};

/** A runahead config's two names: `cli` is what rabsim's --config and
 *  --policies and rabsweep's --configs accept, `display` what tables,
 *  manifests and store keys print. */
struct RunaheadConfigName
{
    RunaheadConfig config;
    const char *cli;
    const char *display;
};

/** Every RunaheadConfig once: the one list both CLIs parse. */
inline constexpr RunaheadConfigName kRunaheadConfigNames[] = {
    {RunaheadConfig::kBaseline, "baseline", "Baseline"},
    {RunaheadConfig::kRunahead, "runahead", "Runahead"},
    {RunaheadConfig::kRunaheadEnhanced, "runahead-enhanced",
     "Runahead-Enhanced"},
    {RunaheadConfig::kRunaheadBuffer, "buffer", "Runahead-Buffer"},
    {RunaheadConfig::kRunaheadBufferCC, "buffer-cc", "RA-Buffer+CC"},
    {RunaheadConfig::kHybrid, "hybrid", "Hybrid"},
    {RunaheadConfig::kCRE, "cre", "CRE"},
    {RunaheadConfig::kCREHybrid, "cre-hybrid", "CRE+Hybrid"},
};

/** Display name of @p config. */
const char *runaheadConfigName(RunaheadConfig config);

/** The config whose CLI name is @p name; nullopt for none. */
std::optional<RunaheadConfig> parseRunaheadConfig(std::string_view name);

/** Every CLI name of kRunaheadConfigNames, in table order, joined by
 *  " | " for a --help text: broken into lines of at most @p width
 *  columns for a list that starts at column @p indent, each line
 *  after the first indented to it, newline-terminated. */
std::string runaheadConfigCliList(std::size_t indent, std::size_t width);

/** Complete simulation configuration. */
struct SimConfig
{
    CoreConfig core{};
    MemSysConfig mem{};
    EnergyCoefficients energy{};

    RunaheadConfig runahead = RunaheadConfig::kBaseline;
    bool prefetch = false; ///< Enable the Table 1 stream prefetcher.

    /** Cycle-loop fast-forward engine (behaviour-preserving; see
     *  Core::fastForwardHorizon). --no-fast-forward disables it for
     *  differential debugging. */
    bool fastForward = true;

    /** Invariant-checking effort (see src/checker). RAB_CHECK_LEVEL in
     *  the environment overrides it. */
    CheckLevel checkLevel = CheckLevel::kOff;

    /** Violation handling: throw, or degrade speculative structures.
     *  RAB_CHECK_POLICY in the environment overrides it. */
    CheckPolicy checkPolicy = CheckPolicy::kThrow;

    /** Fault injection (see src/fault). Inert unless enabled. */
    FaultConfig fault{};

    std::uint64_t warmupInstructions = 20'000;
    std::uint64_t instructions = 100'000;
    std::uint64_t maxCycles = 400'000'000;

    /** @{ Core count: Simulation takes one Program per core, and
     *  numCores == 1 is the paper's single-core system. */
    int numCores = 1;

    /** Per-core runahead policy override, indexed by core id; empty
     *  means every core runs `runahead` (homogeneous). This is the
     *  interference experiment's axis: heterogeneous mixes put e.g.
     *  one runahead-buffer core next to baseline neighbours. */
    std::vector<RunaheadConfig> corePolicies;

    /** Test knob: give every core its own private LLC/DRAM instead of
     *  the shared hierarchy, keeping the lockstep driver. With
     *  contention gone, each core must replay its solo run exactly
     *  (the N-core vs N×solo differential). */
    bool isolateMemory = false;
    /** @} */

    /** Effective policy for @p core_id under corePolicies. */
    RunaheadConfig corePolicy(int core_id) const
    {
        if (corePolicies.empty())
            return runahead;
        return corePolicies[static_cast<std::size_t>(core_id)
                            % corePolicies.size()];
    }

    /** Propagate the runahead/prefetch selections into the component
     *  configs: `runahead` sets core.runahead's six mechanism switches
     *  (every sizing field keeps its value), `prefetch`, `fastForward`,
     *  `checkLevel` and `checkPolicy` their core/memory copies. Call
     *  before constructing a Simulation. */
    void finalize();

    /** Human-readable Table 1-style configuration summary. */
    std::string table1String() const;
};

/** The paper's Table 1 system with a given runahead config. */
SimConfig makeConfig(RunaheadConfig runahead, bool prefetch);

} // namespace rab

#endif // RAB_CORE_SIM_CONFIG_HH
