/**
 * @file
 * Whole-simulator snapshots: capture a `Simulation` at the warmup
 * boundary and restore it later — in the same process, from disk, or
 * from the content-addressed result store — so one warmup run can be
 * amortized across every config variant of a sweep group.
 *
 * Two restore modes:
 *   - kExact: the restoring simulation must have the same full config
 *     digest as the capturing one. Every section is applied; the
 *     resumed run is bit-identical to the straight-line run (commit
 *     stream, cycles, canonical stat payload), clean or faulted.
 *   - kFork: config variants fork from a shared warmup image. Only
 *     warmup-relevant state (core pipeline, caches, DRAM, predictors,
 *     stats) must match, so the image's *warmup* digest is checked and
 *     the variant-specific sections (runahead controller, chain
 *     engine) are skipped: each variant re-derives them from its own
 *     fresh construction. Fork restore requires a fork-safe image —
 *     captured outside any runahead interval (guaranteed when the
 *     warmup ran under the baseline policy).
 *
 * File frame: magic "RABSNAPF" + u32 format version + u32 CRC32 of
 * the payload + u64 payload length + payload. The payload itself is
 * self-describing (see DESIGN.md §16) and can be embedded in other
 * containers (the result store's RABSNAPR records).
 */

#ifndef RAB_SNAPSHOT_SNAPSHOT_HH
#define RAB_SNAPSHOT_SNAPSHOT_HH

#include <cstdint>
#include <string>

#include "snapshot/archive.hh" // SnapshotError / SnapshotErrorKind.

namespace rab
{

class Simulation;
struct SimConfig;

/** Snapshot payload format version (bump on any layout change). */
inline constexpr std::uint32_t kSnapshotFormatVersion = 4;

/** How a snapshot is applied to a simulation. */
enum class SnapshotRestoreMode
{
    kExact, ///< Same config: full state, bit-identical resume.
    kFork,  ///< Config variant: shared warmup state only.
};

/** Parsed snapshot META section (cheap peek, no full restore). */
struct SnapshotMeta
{
    std::uint32_t formatVersion = 0;
    std::uint64_t configDigest = 0; ///< Full-config digest (kExact).
    std::uint64_t warmupDigest = 0; ///< Warmup-relevant digest (kFork).
    bool forkSafe = false; ///< Captured outside any runahead interval.
    std::string workload;
    std::uint64_t programSize = 0;
    std::uint64_t programHash = 0;
    std::uint64_t warmupInstructions = 0;
    std::uint64_t cycle = 0;   ///< Core cycle at capture.
    std::uint64_t retired = 0; ///< Retired uops at capture.
    bool faultPresent = false; ///< Fault-injector section present.
    bool enginePresent = false; ///< Chain-engine section present.
};

/** Serialize the complete simulation state to a payload string. An
 *  image holds one core: throws SnapshotError(kMismatch) when @p sim
 *  has more than one. */
std::string captureSnapshot(Simulation &sim);

/** Apply @p payload to @p sim. Throws SnapshotError on any mismatch
 *  (a multi-core @p sim included), corruption or format problem;
 *  @p sim must then be discarded (it may be partially overwritten). */
void restoreSnapshot(Simulation &sim, const std::string &payload,
                     SnapshotRestoreMode mode);

/** Parse the META section without touching a simulation. */
SnapshotMeta peekSnapshotMeta(const std::string &payload);

/** Digest of the machine and variant fields (kExact gate); the field
 *  list and its tags are core/config_fields.hh's. */
std::uint64_t snapshotConfigDigest(const SimConfig &config);

/** Digest of the machine fields only (kFork gate): everything that
 *  shapes warmup state, nothing variant-specific. */
std::uint64_t snapshotWarmupDigest(const SimConfig &config);

/** FNV-1a 64 content hash of a snapshot payload (store keys). */
std::uint64_t snapshotContentHash(const std::string &payload);

/** Write `payload` to @p path inside the CRC file frame, atomically
 *  and durably (writeFileDurably). Throws SnapshotError(kIo) on
 *  failure. */
void writeSnapshotFile(const std::string &path,
                       const std::string &payload);

/** Read and unframe a snapshot file: validates magic, version and
 *  CRC, returns the payload. Throws SnapshotError on any problem. */
std::string readSnapshotFile(const std::string &path);

} // namespace rab

#endif // RAB_SNAPSHOT_SNAPSHOT_HH
