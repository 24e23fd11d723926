#include "energy/energy_model.hh"

#include "backend/core.hh"
#include "common/logging.hh"

namespace rab
{

namespace
{

constexpr double kPj = 1e-12;

} // namespace

std::string
EnergyBreakdown::toString() const
{
    return strprintf(
        "total %.6f J in %.6f s (fe %.6f, rename %.6f, window %.6f, "
        "regfile %.6f, exec %.6f, cache %.6f, dram %.6f, runahead %.6f, "
        "engine %.6f, leak %.6f)",
        totalJ, seconds, frontendJ, renameJ, windowJ, regfileJ, executeJ,
        cacheJ, dramJ, runaheadJ, engineJ, leakageJ);
}

EnergyModel::EnergyModel(const EnergyCoefficients &coeffs)
    : coeffs_(coeffs)
{
}

EnergyBreakdown
EnergyModel::compute(Core &core, std::uint64_t measured_cycles) const
{
    const EnergyCoefficients &c = coeffs_;
    EnergyBreakdown e;

    Frontend &fe = core.frontend();
    MemorySystem &mem = core.memory();
    RunaheadController &ra = core.runahead();

    const double cycles = measured_cycles
        ? static_cast<double>(measured_cycles)
        : static_cast<double>(core.cycle());
    e.seconds = cycles / (mem.config().dram.coreClockGhz * 1e9);

    e.frontendJ = kPj
        * (static_cast<double>(fe.fetchedUops.value())
               * (c.fetchUopPj + c.decodeUopPj)
           + static_cast<double>(fe.activeCycles.value())
               * c.feActiveCyclePj);

    e.renameJ = kPj * static_cast<double>(core.renamedUops.value())
        * c.renameUopPj;

    e.windowJ = kPj
        * (static_cast<double>(core.rsInsertCount()) * c.rsInsertPj
           + static_cast<double>(core.rsWakeupCount()) * c.rsWakeupPj
           + static_cast<double>(core.issuedUops.value()) * c.selectPj
           + static_cast<double>(core.robWrites.value()) * c.robWritePj
           + static_cast<double>(core.robReads.value()) * c.robReadPj);

    e.regfileJ = kPj
        * (static_cast<double>(core.prfReads.value()) * c.prfReadPj
           + static_cast<double>(core.prfWrites.value()) * c.prfWritePj
           + static_cast<double>(ra.checkpoints.value())
               * c.checkpointPj);

    const double mem_uops =
        static_cast<double>(core.issuedMemUops.value());
    const double alu_uops =
        static_cast<double>(core.issuedUops.value()) - mem_uops;
    e.executeJ = kPj * (alu_uops * c.aluOpPj + mem_uops * c.memOpPj);

    const double l1_accesses =
        static_cast<double>(mem.l1d().hits.value())
        + static_cast<double>(mem.l1d().misses.value())
        + static_cast<double>(mem.l1i().hits.value())
        + static_cast<double>(mem.l1i().misses.value());
    const double llc_accesses =
        static_cast<double>(mem.llc().hits.value())
        + static_cast<double>(mem.llc().misses.value());
    e.cacheJ = kPj * (l1_accesses * c.l1AccessPj
                      + llc_accesses * c.llcAccessPj);

    e.dramJ = kPj * static_cast<double>(mem.dramRequests())
        * c.dramAccessPj;

    const RunaheadCache &rc = ra.runaheadCache();
    const ChainCache &cc = ra.chainCache();
    const double rob_cam_events =
        static_cast<double>(ra.pcCamSearches.value()
                            + ra.regCamSearches.value())
        * static_cast<double>(core.config().robEntries);
    e.runaheadJ = kPj
        * ((static_cast<double>(rc.writes.value())
            + static_cast<double>(rc.readHits.value())
            + static_cast<double>(rc.readMisses.value()))
               * c.runaheadCachePj
           + rob_cam_events * c.chainCamPerEntryPj
           + static_cast<double>(ra.sqCamSearches.value()) * c.sqCamPj
           + static_cast<double>(ra.robChainReads.value()) * c.robReadPj
           + (static_cast<double>(cc.hits.value())
              + static_cast<double>(cc.misses.value())
              + static_cast<double>(cc.inserts.value()))
                 * c.chainCacheAccessPj);

    // Continuous Runahead engine: dynamic energy per engine uop and
    // per issued prefetch, plus its own leakage — but only when the
    // engine exists and is enabled, so every other configuration's
    // energy numbers are bit-identical to the pre-engine model.
    if (const ChainEngine *engine = mem.chainEngine();
        engine && engine->active()) {
        e.engineJ = kPj
            * (static_cast<double>(engine->uopsExecuted.value())
                   * c.engineUopPj
               + static_cast<double>(engine->prefetchesIssued.value())
                   * c.enginePrefetchPj)
            + c.engineLeakageW * e.seconds;
    }

    e.leakageJ =
        (c.coreLeakageW + c.llcLeakageW + c.dramStaticW) * e.seconds
        + kPj * cycles * c.backgroundCorePj;

    e.totalJ = e.frontendJ + e.renameJ + e.windowJ + e.regfileJ
        + e.executeJ + e.cacheJ + e.dramJ + e.runaheadJ + e.engineJ
        + e.leakageJ;
    return e;
}

} // namespace rab
