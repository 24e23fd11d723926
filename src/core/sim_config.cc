#include "core/sim_config.hh"

#include <sstream>

#include "common/logging.hh"

namespace rab
{

const char *
runaheadConfigName(RunaheadConfig config)
{
    switch (config) {
      case RunaheadConfig::kBaseline: return "Baseline";
      case RunaheadConfig::kRunahead: return "Runahead";
      case RunaheadConfig::kRunaheadEnhanced: return "Runahead-Enhanced";
      case RunaheadConfig::kRunaheadBuffer: return "Runahead-Buffer";
      case RunaheadConfig::kRunaheadBufferCC: return "RA-Buffer+CC";
      case RunaheadConfig::kHybrid: return "Hybrid";
      case RunaheadConfig::kCRE: return "CRE";
      case RunaheadConfig::kCREHybrid: return "CRE+Hybrid";
    }
    return "?";
}

void
SimConfig::finalize()
{
    switch (runahead) {
      case RunaheadConfig::kBaseline:
        core.runahead = policyNone();
        break;
      case RunaheadConfig::kRunahead:
        core.runahead = policyTraditional();
        break;
      case RunaheadConfig::kRunaheadEnhanced:
        core.runahead = policyTraditionalEnhanced();
        break;
      case RunaheadConfig::kRunaheadBuffer:
        core.runahead = policyBuffer();
        break;
      case RunaheadConfig::kRunaheadBufferCC:
        core.runahead = policyBufferChainCache();
        break;
      case RunaheadConfig::kHybrid:
        core.runahead = policyHybrid();
        break;
      case RunaheadConfig::kCRE:
        core.runahead = policyCre();
        break;
      case RunaheadConfig::kCREHybrid:
        core.runahead = policyCreHybrid();
        break;
    }
    mem.prefetcher.enabled = prefetch;
    core.fastForward = fastForward;
    core.checkLevel = checkLevel;
    core.checkPolicy = checkPolicy;
    // Fault campaigns need the recovery layer armed: default the
    // forward-progress watchdog on (well below the deadlock panic)
    // unless the user configured a bound explicitly.
    if (fault.enabled && core.watchdog.cycles == 0)
        core.watchdog.cycles = 100'000;
    // Figures 3-5 instrument traditional runahead intervals.
    core.collectChainAnalysis = core.runahead.traditionalEnabled;
    energy.robEntries = core.robEntries;
    energy.clockGhz = mem.dram.coreClockGhz;
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
