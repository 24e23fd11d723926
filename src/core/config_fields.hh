/**
 * @file
 * The one list of config fields: for each config struct under
 * SimConfig, visitFields(config, v) calls v(name, member, tag) for
 * every direct member, in declaration order. The tag names the snapshot
 * digests that hash the member: kMachine both (it shapes warmup state),
 * kVariant the exact one (the runahead policy, which variants fork
 * away from), kUnhashed neither (budgets, behaviour-preserving
 * switches, names, and the energy coefficients, which only price
 * counters after the run).
 */

#ifndef RAB_CORE_CONFIG_FIELDS_HH
#define RAB_CORE_CONFIG_FIELDS_HH

#include <algorithm>
#include <cstddef>
#include <string>
#include <type_traits>

#include "core/sim_config.hh"

namespace rab
{

/** Which snapshot digests hash a member; later values hash less. */
enum class FieldTag
{
    kMachine,
    kVariant,
    kUnhashed,
};

template <FieldTag Tag>
using FieldTagConstant = std::integral_constant<FieldTag, Tag>;
inline constexpr FieldTagConstant<FieldTag::kMachine> kMachine{};
inline constexpr FieldTagConstant<FieldTag::kVariant> kVariant{};
inline constexpr FieldTagConstant<FieldTag::kUnhashed> kUnhashed{};

/** @p C is @p T or const @p T: one visitor serves reads and writes. */
template <class C, class T>
concept ConfigOf = std::is_same_v<std::remove_const_t<C>, T>;

constexpr void
visitFields(ConfigOf<CacheConfig> auto &c, auto &&v)
{
    v("name", c.name, kUnhashed);
    v("sizeBytes", c.sizeBytes, kMachine);
    v("associativity", c.associativity, kMachine);
    v("lineBytes", c.lineBytes, kMachine);
    v("latency", c.latency, kMachine);
}

constexpr void
visitFields(ConfigOf<DramConfig> auto &c, auto &&v)
{
    v("coreClockGhz", c.coreClockGhz, kMachine);
    v("busClockMhz", c.busClockMhz, kMachine);
    v("channels", c.channels, kMachine);
    v("banksPerChannel", c.banksPerChannel, kMachine);
    v("rowBytes", c.rowBytes, kMachine);
    v("lineBytes", c.lineBytes, kMachine);
    v("casNs", c.casNs, kMachine);
    v("tRcdNs", c.tRcdNs, kMachine);
    v("tRpNs", c.tRpNs, kMachine);
}

constexpr void
visitFields(ConfigOf<PrefetcherConfig> auto &c, auto &&v)
{
    v("enabled", c.enabled, kMachine);
    v("streams", c.streams, kMachine);
    v("distance", c.distance, kMachine);
    v("degree", c.degree, kMachine);
    v("fdpThrottle", c.fdpThrottle, kMachine);
    v("fdpInterval", c.fdpInterval, kMachine);
    v("fdpHighAccuracy", c.fdpHighAccuracy, kMachine);
    v("fdpLowAccuracy", c.fdpLowAccuracy, kMachine);
}

constexpr void
visitFields(ConfigOf<MemSysConfig> auto &c, auto &&v)
{
    v("l1i", c.l1i, kMachine);
    v("l1d", c.l1d, kMachine);
    v("llc", c.llc, kMachine);
    v("dram", c.dram, kMachine);
    v("prefetcher", c.prefetcher, kMachine);
    v("memQueueEntries", c.memQueueEntries, kMachine);
    v("runaheadQueueReserve", c.runaheadQueueReserve, kMachine);
    v("memRetryLimit", c.memRetryLimit, kMachine);
    v("memTimeoutCycles", c.memTimeoutCycles, kMachine);
    v("memRetryBackoffCycles", c.memRetryBackoffCycles, kMachine);
}

constexpr void
visitFields(ConfigOf<WatchdogConfig> auto &c, auto &&v)
{
    v("cycles", c.cycles, kMachine);
    v("giveUpAfter", c.giveUpAfter, kMachine);
    v("maxRecoveries", c.maxRecoveries, kMachine);
}

constexpr void
visitFields(ConfigOf<FrontendConfig> auto &c, auto &&v)
{
    v("fetchWidth", c.fetchWidth, kMachine);
    v("decodeDepth", c.decodeDepth, kMachine);
    v("fetchQueueEntries", c.fetchQueueEntries, kMachine);
    v("uopBytes", c.uopBytes, kMachine);
    v("instBase", c.instBase, kMachine);
}

constexpr void
visitFields(ConfigOf<BranchPredictorConfig> auto &c, auto &&v)
{
    v("historyBits", c.historyBits, kMachine);
    v("bimodalEntries", c.bimodalEntries, kMachine);
    v("gshareEntries", c.gshareEntries, kMachine);
    v("chooserEntries", c.chooserEntries, kMachine);
    v("btbEntries", c.btbEntries, kMachine);
    v("rasEntries", c.rasEntries, kMachine);
}

constexpr void
visitFields(ConfigOf<ChainGeneratorConfig> auto &c, auto &&v)
{
    v("maxChainLength", c.maxChainLength, kVariant);
    v("regSearchesPerCycle", c.regSearchesPerCycle, kVariant);
    v("readoutWidth", c.readoutWidth, kVariant);
    v("srslEntries", c.srslEntries, kVariant);
}

constexpr void
visitFields(ConfigOf<RunaheadCacheConfig> auto &c, auto &&v)
{
    v("sizeBytes", c.sizeBytes, kVariant);
    v("associativity", c.associativity, kVariant);
    v("lineBytes", c.lineBytes, kVariant);
}

constexpr void
visitFields(ConfigOf<DegradationConfig> auto &c, auto &&v)
{
    v("enabled", c.enabled, kVariant);
    v("faultThreshold", c.faultThreshold, kVariant);
    v("probationCycles", c.probationCycles, kVariant);
}

constexpr void
visitFields(ConfigOf<ChainEngineConfig> auto &c, auto &&v)
{
    v("enabled", c.enabled, kVariant);
    v("instantiateInert", c.instantiateInert, kVariant);
    v("slots", c.slots, kVariant);
    v("storeBufEntries", c.storeBufEntries, kVariant);
    v("uopsPerCycle", c.uopsPerCycle, kVariant);
    v("utilityInit", c.utilityInit, kVariant);
    v("utilityMax", c.utilityMax, kVariant);
    v("idleIterationLimit", c.idleIterationLimit, kVariant);
    v("recentEntries", c.recentEntries, kVariant);
    v("queueRetryCycles", c.queueRetryCycles, kVariant);
    v("recentTtlCycles", c.recentTtlCycles, kVariant);
}

constexpr void
visitFields(ConfigOf<RunaheadPolicy> auto &c, auto &&v)
{
    v("traditionalEnabled", c.traditionalEnabled, kVariant);
    v("bufferEnabled", c.bufferEnabled, kVariant);
    v("chainCacheEnabled", c.chainCacheEnabled, kVariant);
    v("hybrid", c.hybrid, kVariant);
    v("enhancements", c.enhancements, kVariant);
    v("distanceThreshold", c.distanceThreshold, kVariant);
    v("chainCacheEntries", c.chainCacheEntries, kVariant);
    v("chainGen", c.chainGen, kVariant);
    v("runaheadCache", c.runaheadCache, kVariant);
    v("degrade", c.degrade, kVariant);
    v("engine", c.engine, kVariant);
}

constexpr void
visitFields(ConfigOf<CoreConfig> auto &c, auto &&v)
{
    v("renameWidth", c.renameWidth, kMachine);
    v("issueWidth", c.issueWidth, kMachine);
    v("commitWidth", c.commitWidth, kMachine);
    v("robEntries", c.robEntries, kMachine);
    v("rsEntries", c.rsEntries, kMachine);
    v("sqEntries", c.sqEntries, kMachine);
    v("numPhysRegs", c.numPhysRegs, kMachine);
    v("memPorts", c.memPorts, kMachine);
    v("redirectPenalty", c.redirectPenalty, kMachine);
    v("exitPenalty", c.exitPenalty, kMachine);
    v("stallEntryCycles", c.stallEntryCycles, kMachine);
    v("minRunaheadDistance", c.minRunaheadDistance, kMachine);
    v("deadlockCycles", c.deadlockCycles, kMachine);
    v("fastForward", c.fastForward, kUnhashed);
    v("checkLevel", c.checkLevel, kMachine);
    v("checkPolicy", c.checkPolicy, kMachine);
    v("watchdog", c.watchdog, kMachine);
    v("frontend", c.frontend, kMachine);
    v("bp", c.bp, kMachine);
    v("runahead", c.runahead, kVariant);
}

constexpr void
visitFields(ConfigOf<FaultConfig> auto &c, auto &&v)
{
    v("enabled", c.enabled, kMachine);
    v("seed", c.seed, kMachine);
    v("chainCacheRate", c.chainCacheRate, kMachine);
    v("bufferUopRate", c.bufferUopRate, kMachine);
    v("dramDropRate", c.dramDropRate, kMachine);
    v("dramDelayRate", c.dramDelayRate, kMachine);
    v("dramDelayMaxCycles", c.dramDelayMaxCycles, kMachine);
    v("memStallRate", c.memStallRate, kMachine);
    v("memStallCycles", c.memStallCycles, kMachine);
}

/** The root. `energy` has no visitor: it is one opaque member. */
constexpr void
visitFields(ConfigOf<SimConfig> auto &c, auto &&v)
{
    v("core", c.core, kMachine);
    v("mem", c.mem, kMachine);
    v("energy", c.energy, kUnhashed);
    v("runahead", c.runahead, kVariant);
    v("prefetch", c.prefetch, kMachine);
    v("fastForward", c.fastForward, kUnhashed);
    v("checkLevel", c.checkLevel, kMachine);
    v("checkPolicy", c.checkPolicy, kMachine);
    v("fault", c.fault, kMachine);
    v("warmupInstructions", c.warmupInstructions, kMachine);
    v("instructions", c.instructions, kUnhashed);
    v("maxCycles", c.maxCycles, kUnhashed);
    v("numCores", c.numCores, kMachine);
    v("corePolicies", c.corePolicies, kVariant);
    v("isolateMemory", c.isolateMemory, kUnhashed);
}

/** Converts to any type, so aggregate T accepts exactly as many of
 *  these in a brace initializer as it has members (no config struct
 *  has an array member, which would take one per element). */
struct AnyMember
{
    template <class T>
    operator T() const;
};

/** Number of direct members of aggregate @p T. */
template <class T, class... Init>
constexpr std::size_t
memberCount()
{
    if constexpr (requires { T{Init{}..., AnyMember{}}; })
        return memberCount<T, Init..., AnyMember>();
    else
        return sizeof...(Init);
}

/** @p T has a visitor, so a walk descends into it. */
template <class T>
concept VisitedConfig = requires(T &config) { visitFields(config, 0); };

/** True when visitFields names as many members as @p T has. */
template <class T>
constexpr bool
visitsEveryMember()
{
    T config{};
    std::size_t visits = 0;
    visitFields(config, [&](const char *, auto &, auto) { ++visits; });
    return visits == memberCount<T>();
}

/**
 * leaf(path, member, tag) for every member under @p config with no
 * visitor of its own, depth first. @p path is dotted
 * ("core.runahead.chainGen.maxChainLength"); @p tag is a
 * FieldTagConstant, the member's tag or an enclosing one's where that
 * hashes less. Fails to compile for a struct with a member its visitor
 * does not name.
 */
template <FieldTag Ceiling = FieldTag::kMachine, class C, class Leaf>
void
forEachConfigLeaf(C &config, Leaf &&leaf, const std::string &prefix = "")
{
    static_assert(visitsEveryMember<std::remove_const_t<C>>(),
                  "a member is missing from its struct's visitFields");
    visitFields(config, [&](const char *name, auto &member, auto tag) {
        constexpr FieldTag effective =
            std::max(Ceiling, decltype(tag)::value);
        if constexpr (VisitedConfig<
                          std::remove_cvref_t<decltype(member)>>) {
            forEachConfigLeaf<effective>(member, leaf,
                                         prefix + name + ".");
        } else {
            leaf(prefix + name, member, FieldTagConstant<effective>{});
        }
    });
}

} // namespace rab

#endif // RAB_CORE_CONFIG_FIELDS_HH
