/**
 * @file
 * Event-based chip + DRAM energy model (the paper used McPAT 1.3 and
 * CACTI 6.5; see DESIGN.md §2 for the substitution rationale).
 *
 * Energy = Σ (event count × per-event energy) + leakage power × time.
 * The front-end contributes dynamic energy only for fetched/decoded
 * uops and non-gated active cycles, so clock-gating it during runahead
 * buffer mode (and during idle cycles on every configuration, as McPAT
 * does) falls out naturally. The extra events the paper charges to the
 * runahead buffer — PC CAM and destination-register CAM searches across
 * the ROB, store-queue CAM searches, ROB chain read-out, and the
 * checkpoint RAT/PRF copy — are all modelled.
 *
 * Coefficients are order-of-magnitude estimates for a ~3 GHz, 4-wide
 * out-of-order core; absolute joules are not meaningful, but ratios
 * between configurations (the paper's metric) are driven by the same
 * mechanisms as in McPAT: dynamic instruction count, front-end
 * activity, DRAM traffic and execution time.
 */

#ifndef RAB_ENERGY_ENERGY_MODEL_HH
#define RAB_ENERGY_ENERGY_MODEL_HH

#include <cstdint>
#include <string>

namespace rab
{

class Core;

/** Per-event energies (pJ) and static powers (W). */
struct EnergyCoefficients
{
    /** @{ Front-end: fetch + decode dominate (the paper cites up to
     *  40% of core power in the front-end). */
    double fetchUopPj = 80.0;
    double decodeUopPj = 60.0;
    double feActiveCyclePj = 80.0; ///< FE clock per non-gated cycle.
    /** @} */

    /** @{ Back-end per-uop. */
    double renameUopPj = 10.0;
    double rsInsertPj = 5.0;
    double rsWakeupPj = 0.2;   ///< Per ready-check (window background).
    double selectPj = 3.0;     ///< Per issued uop.
    double prfReadPj = 5.0;
    double prfWritePj = 7.0;
    double robWritePj = 6.0;
    double robReadPj = 5.0;
    double aluOpPj = 10.0;
    double memOpPj = 14.0;     ///< AGU + TLB + LSQ per memory uop.
    /** @} */

    /** @{ Memory hierarchy. */
    double l1AccessPj = 30.0;
    double llcAccessPj = 150.0;
    double dramAccessPj = 15000.0; ///< Per 64 B line transfer.
    /** @} */

    /** Un-gateable core clock tree / sequencing energy per cycle (the
     *  McPAT "runtime dynamic" floor a stalled core still pays). */
    double backgroundCorePj = 800.0;

    /** @{ Runahead-specific events (Section 5). */
    double runaheadCachePj = 6.0;
    double chainCamPerEntryPj = 0.25; ///< × ROB entries per search.
    double sqCamPj = 15.0;
    double chainCacheAccessPj = 20.0;
    double checkpointPj = 600.0; ///< RAT + PRF read, checkpoint write.
    /** @} */

    /** @{ Continuous Runahead engine (CRE configs). A tiny in-order
     *  uop loop plus its 32-entry register file; prefetches pay the
     *  queue/LLC insertion on top of the DRAM transfer accounted in
     *  dramAccessPj (engine fills are regular DRAM reads). */
    double engineUopPj = 8.0;
    double enginePrefetchPj = 20.0;
    double engineLeakageW = 0.05;
    /** @} */

    /** @{ Static power (W). */
    double coreLeakageW = 0.55;
    double llcLeakageW = 0.30;
    double dramStaticW = 0.45;
    /** @} */
};

/** Energy broken down by component, in joules. */
struct EnergyBreakdown
{
    double frontendJ = 0;
    double renameJ = 0;
    double windowJ = 0;   ///< RS + ROB.
    double regfileJ = 0;  ///< PRF + checkpointing.
    double executeJ = 0;
    double cacheJ = 0;    ///< L1 + LLC.
    double dramJ = 0;     ///< DRAM dynamic.
    double runaheadJ = 0; ///< Runahead cache, chain gen, chain cache.
    double engineJ = 0;   ///< Continuous Runahead engine (CRE only).
    double leakageJ = 0;
    double totalJ = 0;
    double seconds = 0;

    std::string toString() const;
};

/** The model. */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyCoefficients &coeffs = {});

    /**
     * Compute the breakdown for a finished simulation.
     *
     * @param measured_cycles cycles in the measured region (pass
     *        core.cycle() when no warmup reset was applied; 0 means
     *        "use core.cycle()").
     */
    EnergyBreakdown compute(Core &core,
                            std::uint64_t measured_cycles = 0) const;

    const EnergyCoefficients &coefficients() const { return coeffs_; }

  private:
    EnergyCoefficients coeffs_;
};

} // namespace rab

#endif // RAB_ENERGY_ENERGY_MODEL_HH
