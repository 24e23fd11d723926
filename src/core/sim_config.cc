#include "core/sim_config.hh"

#include <sstream>

#include "common/logging.hh"

namespace rab
{

const char *
runaheadConfigName(RunaheadConfig config)
{
    for (const RunaheadConfigName &names : kRunaheadConfigNames) {
        if (names.config == config)
            return names.display;
    }
    return "?";
}

std::optional<RunaheadConfig>
parseRunaheadConfig(std::string_view name)
{
    for (const RunaheadConfigName &names : kRunaheadConfigNames) {
        if (name == names.cli)
            return names.config;
    }
    return std::nullopt;
}

namespace
{

RunaheadPolicy
policyPreset(RunaheadConfig config)
{
    switch (config) {
      case RunaheadConfig::kBaseline: return policyNone();
      case RunaheadConfig::kRunahead: return policyTraditional();
      case RunaheadConfig::kRunaheadEnhanced:
        return policyTraditionalEnhanced();
      case RunaheadConfig::kRunaheadBuffer: return policyBuffer();
      case RunaheadConfig::kRunaheadBufferCC:
        return policyBufferChainCache();
      case RunaheadConfig::kHybrid: return policyHybrid();
      case RunaheadConfig::kCRE: return policyCre();
      case RunaheadConfig::kCREHybrid: return policyCreHybrid();
    }
    return policyNone();
}

} // namespace

void
SimConfig::finalize()
{
    // The preset picks the mechanisms; every sizing field (buffer and
    // chain cache, runahead cache, ladder, engine) keeps the caller's
    // value, so a re-finalize under another policy keeps overrides.
    const RunaheadPolicy preset = policyPreset(runahead);
    RunaheadPolicy &p = core.runahead;
    p.traditionalEnabled = preset.traditionalEnabled;
    p.bufferEnabled = preset.bufferEnabled;
    p.chainCacheEnabled = preset.chainCacheEnabled;
    p.hybrid = preset.hybrid;
    p.enhancements = preset.enhancements;
    p.engine.enabled = preset.engine.enabled;
    mem.prefetcher.enabled = prefetch;
    core.fastForward = fastForward;
    core.checkLevel = checkLevel;
    core.checkPolicy = checkPolicy;
    // Fault campaigns need the recovery layer armed: default the
    // forward-progress watchdog on (well below the deadlock panic)
    // unless the user configured a bound explicitly.
    if (fault.enabled && core.watchdog.cycles == 0)
        core.watchdog.cycles = 100'000;
}

std::string
SimConfig::table1String() const
{
    std::ostringstream os;
    os << "Core            " << core.issueWidth << "-wide issue, "
       << core.robEntries << " entry ROB, " << core.rsEntries
       << " entry reservation station, hybrid branch predictor, "
       << mem.dram.coreClockGhz << " GHz\n";
    os << "Runahead Buffer " << core.runahead.chainGen.maxChainLength
       << "-entry, uop size 8 bytes\n";
    os << "Runahead Cache  "
       << core.runahead.runaheadCache.sizeBytes << " B, "
       << core.runahead.runaheadCache.associativity
       << "-way, " << core.runahead.runaheadCache.lineBytes
       << " B lines\n";
    os << "Chain Cache     " << core.runahead.chainCacheEntries
       << " entries x " << core.runahead.chainGen.maxChainLength
       << " uops\n";
    os << "L1 Caches       " << mem.l1i.sizeBytes / 1024 << " KB I, "
       << mem.l1d.sizeBytes / 1024 << " KB D, "
       << mem.l1d.lineBytes << " B lines, " << core.memPorts
       << " ports, " << mem.l1d.latency << " cycle, "
       << mem.l1d.associativity << "-way, write-back\n";
    os << "LLC             " << mem.llc.sizeBytes / (1024 * 1024)
       << " MB, " << mem.llc.associativity << "-way, "
       << mem.llc.latency
       << " cycle, write-back, inclusive, "
       << mem.memQueueEntries << " entry memory queue\n";
    os << "Prefetcher      "
       << (prefetch ? "stream: " : "disabled (stream: ")
       << mem.prefetcher.streams << " streams, distance "
       << mem.prefetcher.distance << ", degree "
       << mem.prefetcher.degree << ", into LLC, FDP throttling"
       << (prefetch ? "" : ")") << "\n";
    os << "DRAM            DDR3, " << mem.dram.channels
       << " channels, " << mem.dram.banksPerChannel
       << " banks/channel, " << mem.dram.rowBytes / 1024
       << " KB rows, CAS " << mem.dram.casNs << " ns, "
       << mem.dram.busClockMhz
       << " MHz bus, bank conflicts & queueing modelled\n";
    return os.str();
}

SimConfig
makeConfig(RunaheadConfig runahead, bool prefetch)
{
    SimConfig config;
    config.runahead = runahead;
    config.prefetch = prefetch;
    config.finalize();
    return config;
}

} // namespace rab
