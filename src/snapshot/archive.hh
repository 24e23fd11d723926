/**
 * @file
 * Serialization archive for whole-simulator snapshots.
 *
 * One `field()` template serializes and deserializes every value
 * through the same statement list: SnapshotWriter appends bytes to a
 * growable buffer, SnapshotReader consumes them with bounds checks,
 * and `if constexpr (Ar::kIsLoad)` picks the direction. Because each
 * component's state is described exactly once, the save and load paths
 * can never disagree about layout — the property the bit-identical
 * resume guarantee rests on.
 *
 * Encoding rules (all integers little-endian, fixed width):
 *   - bool            1 byte, normalised to 0/1;
 *   - integral/enum   sizeof(T) bytes;
 *   - float/double    IEEE bit pattern, sizeof(T) bytes;
 *   - string/vector/deque  u64 count + elements;
 *   - vector of a non-bool integral type: the same bytes, moved with
 *     one copy of the whole buffer on little-endian hosts (the
 *     in-memory layout already is the encoding) and element by
 *     element elsewhere;
 *   - array/pair      elements only (extent is part of the type);
 *   - map             u64 count + (key, value) in key order;
 *   - unordered_map/unordered_set  u64 count + entries sorted by key,
 *     so the byte stream never depends on hash-table iteration order;
 *   - class types     SnapshotAccess::io(ar, v) — the per-component
 *     serializers defined in snapshot.cc.
 *
 * Element counts read from a payload are validated against the bytes
 * remaining before any container is resized, so a corrupted length
 * field raises SnapshotError instead of a giant allocation.
 */

#ifndef RAB_SNAPSHOT_ARCHIVE_HH
#define RAB_SNAPSHOT_ARCHIVE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace rab
{

/** Why a snapshot was rejected. */
enum class SnapshotErrorKind
{
    kIo,        ///< File could not be opened/read/written.
    kMagic,     ///< Not a snapshot file.
    kVersion,   ///< Unsupported format version.
    kCrc,       ///< Payload checksum mismatch (bit rot / truncation).
    kTruncated, ///< Payload ended mid-field.
    kMismatch,  ///< Snapshot does not match the restoring simulation.
    kFormat,    ///< Structurally malformed payload.
};

const char *snapshotErrorKindName(SnapshotErrorKind kind);

/** Structured snapshot failure: every reject path throws this, so a
 *  caller handles a bad image in one place (rabsim exits 8, a campaign
 *  fails the point). */
class SnapshotError : public std::runtime_error
{
  public:
    SnapshotError(SnapshotErrorKind kind, const std::string &detail);

    SnapshotErrorKind kind() const { return kind_; }

  private:
    SnapshotErrorKind kind_;
};

/** Save-direction archive: appends to an in-memory byte buffer. */
class SnapshotWriter
{
  public:
    static constexpr bool kIsLoad = false;

    void bytes(const void *data, std::size_t n)
    {
        buf_.append(static_cast<const char *>(data), n);
    }

    std::size_t size() const { return buf_.size(); }

    /** Buffer access for section-length back-patching. */
    std::string &buffer() { return buf_; }

    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/** Load-direction archive: bounds-checked cursor over a payload. */
class SnapshotReader
{
  public:
    static constexpr bool kIsLoad = true;

    SnapshotReader(const void *data, std::size_t size)
        : cur_(static_cast<const std::uint8_t *>(data)),
          end_(cur_ + size), begin_(cur_)
    {
    }

    explicit SnapshotReader(const std::string &payload)
        : SnapshotReader(payload.data(), payload.size())
    {
    }

    void bytes(void *out, std::size_t n)
    {
        if (remaining() < n) {
            throw SnapshotError(SnapshotErrorKind::kTruncated,
                                "payload ended mid-field");
        }
        std::memcpy(out, cur_, n);
        cur_ += n;
    }

    void skip(std::size_t n)
    {
        if (remaining() < n) {
            throw SnapshotError(SnapshotErrorKind::kTruncated,
                                "payload ended mid-section");
        }
        cur_ += n;
    }

    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end_ - cur_);
    }

    std::size_t offset() const
    {
        return static_cast<std::size_t>(cur_ - begin_);
    }

  private:
    const std::uint8_t *cur_;
    const std::uint8_t *end_;
    const std::uint8_t *begin_;
};

/** @{ Container-shape detection for field()'s dispatch. */
template <class T> struct SnapIsVector : std::false_type
{
};
template <class T> struct SnapIsVector<std::vector<T>> : std::true_type
{
};
template <class T> struct SnapIsIntVector : std::false_type
{
};
template <class T>
struct SnapIsIntVector<std::vector<T>>
    : std::bool_constant<std::is_integral_v<T>
                         && !std::is_same_v<T, bool>>
{
};
template <class T> struct SnapIsDeque : std::false_type
{
};
template <class T> struct SnapIsDeque<std::deque<T>> : std::true_type
{
};
template <class T> struct SnapIsArray : std::false_type
{
};
template <class T, std::size_t N>
struct SnapIsArray<std::array<T, N>> : std::true_type
{
};
template <class T> struct SnapIsPair : std::false_type
{
};
template <class A, class B>
struct SnapIsPair<std::pair<A, B>> : std::true_type
{
};
template <class T> struct SnapIsMap : std::false_type
{
};
template <class K, class V, class C, class A>
struct SnapIsMap<std::map<K, V, C, A>> : std::true_type
{
};
template <class T> struct SnapIsUnorderedMap : std::false_type
{
};
template <class K, class V, class H, class E, class A>
struct SnapIsUnorderedMap<std::unordered_map<K, V, H, E, A>>
    : std::true_type
{
};
template <class T> struct SnapIsUnorderedSet : std::false_type
{
};
template <class K, class H, class E, class A>
struct SnapIsUnorderedSet<std::unordered_set<K, H, E, A>>
    : std::true_type
{
};
/** @} */

/**
 * Private-state access hub. Every serialized component declares
 * `friend struct SnapshotAccess;`, and the matching io() definition
 * (all of them live in snapshot.cc, one translation unit) walks the
 * member list. Nested private structs are serialized inline inside the
 * owning class's io() — friendship covers them.
 */
class BranchPredictor;
class Cache;
class ChainAnalysis;
class ChainCache;
class ChainEngine;
class Core;
class DegradationLadder;
class Dram;
class FaultInjector;
class ForwardProgressWatchdog;
class Frontend;
class FunctionalMemory;
class InvariantChecker;
class IssuePorts;
class MemorySystem;
class PhysRegFile;
class Rat;
class ReservationStation;
class Rng;
class Rob;
class RunaheadBuffer;
class RunaheadCache;
class RunaheadController;
class SharedMemory;
class Simulation;
class StoreQueue;
class StreamPrefetcher;
class WritebackQueue;
struct ArchCheckpoint;
struct ChainOp;
struct DynUop;
struct FetchedUop;
struct Uop;
struct WbEvent;

struct SnapshotAccess
{
    /** @{ Per-component serializers (definitions in snapshot.cc). */
    template <class Ar> static void io(Ar &ar, Rng &v);
    template <class Ar> static void io(Ar &ar, Uop &v);
    template <class Ar> static void io(Ar &ar, DynUop &v);
    template <class Ar> static void io(Ar &ar, ChainOp &v);
    template <class Ar> static void io(Ar &ar, FetchedUop &v);
    template <class Ar> static void io(Ar &ar, WbEvent &v);
    template <class Ar> static void io(Ar &ar, ArchCheckpoint &v);
    template <class Ar> static void io(Ar &ar, BranchPredictor &v);
    template <class Ar> static void io(Ar &ar, Frontend &v);
    template <class Ar> static void io(Ar &ar, PhysRegFile &v);
    template <class Ar> static void io(Ar &ar, Rat &v);
    template <class Ar> static void io(Ar &ar, Rob &v);
    template <class Ar> static void io(Ar &ar, ReservationStation &v);
    template <class Ar> static void io(Ar &ar, StoreQueue &v);
    template <class Ar> static void io(Ar &ar, WritebackQueue &v);
    template <class Ar> static void io(Ar &ar, IssuePorts &v);
    template <class Ar> static void io(Ar &ar, FunctionalMemory &v);
    template <class Ar> static void io(Ar &ar, Cache &v);
    template <class Ar> static void io(Ar &ar, Dram &v);
    template <class Ar> static void io(Ar &ar, StreamPrefetcher &v);
    template <class Ar> static void io(Ar &ar, MemorySystem &v);
    template <class Ar> static void io(Ar &ar, SharedMemory &v);
    template <class Ar> static void io(Ar &ar, RunaheadCache &v);
    template <class Ar> static void io(Ar &ar, RunaheadBuffer &v);
    template <class Ar> static void io(Ar &ar, ChainCache &v);
    template <class Ar> static void io(Ar &ar, ChainAnalysis &v);
    template <class Ar> static void io(Ar &ar, DegradationLadder &v);
    template <class Ar> static void io(Ar &ar, ChainEngine &v);
    template <class Ar> static void io(Ar &ar, RunaheadController &v);
    template <class Ar> static void io(Ar &ar, FaultInjector &v);
    template <class Ar>
    static void io(Ar &ar, ForwardProgressWatchdog &v);
    template <class Ar> static void io(Ar &ar, InvariantChecker &v);
    template <class Ar> static void io(Ar &ar, Core &v);
    /** Every section after META of a whole simulation; @p fork skips
     *  the variant-specific ones on load. */
    template <class Ar>
    static void io(Ar &ar, Simulation &v, bool fork);
    /** @} */
};

/** Fixed-width little-endian scalar (integral, enum or float). */
template <class Ar, class T>
void
fieldScalar(Ar &ar, T &v)
{
    static_assert(sizeof(T) == 1 || sizeof(T) == 2 || sizeof(T) == 4
                  || sizeof(T) == 8);
    using U = std::conditional_t<
        sizeof(T) == 1, std::uint8_t,
        std::conditional_t<
            sizeof(T) == 2, std::uint16_t,
            std::conditional_t<sizeof(T) == 4, std::uint32_t,
                               std::uint64_t>>>;
    std::uint8_t raw[sizeof(T)];
    if constexpr (!Ar::kIsLoad) {
        U u;
        std::memcpy(&u, &v, sizeof(T));
        for (std::size_t i = 0; i < sizeof(T); ++i)
            raw[i] = static_cast<std::uint8_t>(u >> (8 * i));
        ar.bytes(raw, sizeof(T));
    } else {
        ar.bytes(raw, sizeof(T));
        U u = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            u |= static_cast<U>(raw[i]) << (8 * i);
        std::memcpy(&v, &u, sizeof(T));
    }
}

/**
 * Element-count token: written on save; on load it is read and
 * validated against the bytes remaining (each element needs at least
 * @p min_elem_bytes), so corrupt counts fail fast instead of resizing
 * a container to garbage.
 */
template <class Ar>
std::uint64_t
fieldCount(Ar &ar, std::uint64_t n, std::size_t min_elem_bytes = 1)
{
    fieldScalar(ar, n);
    if constexpr (Ar::kIsLoad) {
        if (min_elem_bytes == 0)
            min_elem_bytes = 1;
        if (n > ar.remaining() / min_elem_bytes) {
            throw SnapshotError(SnapshotErrorKind::kTruncated,
                                "element count exceeds payload size");
        }
    }
    return n;
}

template <class Ar, class T> void field(Ar &ar, T &v);

/**
 * Size-prefixed sequence with a caller-supplied element serializer —
 * the idiom for containers of classes' private nested structs, which
 * the generic field() cannot name.
 */
template <class Ar, class C, class Fn>
void
fieldSeq(Ar &ar, C &c, Fn fn)
{
    std::uint64_t n = fieldCount(ar, c.size());
    if constexpr (Ar::kIsLoad)
        c.resize(static_cast<std::size_t>(n));
    for (auto &elem : c)
        fn(ar, elem);
}

template <class Ar, class T>
void
field(Ar &ar, T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        std::uint8_t b = v ? 1 : 0;
        fieldScalar(ar, b);
        if constexpr (Ar::kIsLoad)
            v = b != 0;
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>
                         || std::is_floating_point_v<T>) {
        fieldScalar(ar, v);
    } else if constexpr (std::is_same_v<T, std::string>) {
        std::uint64_t n = fieldCount(ar, v.size());
        if constexpr (Ar::kIsLoad)
            v.resize(static_cast<std::size_t>(n));
        if (n > 0)
            ar.bytes(v.data(), static_cast<std::size_t>(n));
    } else if constexpr (std::is_same_v<T, std::vector<bool>>) {
        std::uint64_t n = fieldCount(ar, v.size());
        if constexpr (Ar::kIsLoad)
            v.assign(static_cast<std::size_t>(n), false);
        for (std::size_t i = 0; i < n; ++i) {
            std::uint8_t b = 0;
            if constexpr (!Ar::kIsLoad)
                b = v[i] ? 1 : 0;
            fieldScalar(ar, b);
            if constexpr (Ar::kIsLoad)
                v[i] = b != 0;
        }
    } else if constexpr (SnapIsIntVector<T>::value
                         && std::endian::native == std::endian::little) {
        using E = typename T::value_type;
        const std::uint64_t n = fieldCount(ar, v.size(), sizeof(E));
        if constexpr (Ar::kIsLoad)
            v.resize(static_cast<std::size_t>(n));
        if (n > 0)
            ar.bytes(v.data(), static_cast<std::size_t>(n) * sizeof(E));
    } else if constexpr (SnapIsVector<T>::value
                         || SnapIsDeque<T>::value) {
        fieldSeq(ar, v,
                 [](Ar &a, auto &elem) { field(a, elem); });
    } else if constexpr (SnapIsArray<T>::value) {
        for (auto &elem : v)
            field(ar, elem);
    } else if constexpr (SnapIsPair<T>::value) {
        field(ar, v.first);
        field(ar, v.second);
    } else if constexpr (SnapIsMap<T>::value) {
        std::uint64_t n = fieldCount(ar, v.size());
        if constexpr (!Ar::kIsLoad) {
            for (auto &kv : v) {
                auto key = kv.first;
                field(ar, key);
                field(ar, kv.second);
            }
        } else {
            v.clear();
            auto hint = v.end();
            for (std::uint64_t i = 0; i < n; ++i) {
                typename T::key_type key{};
                typename T::mapped_type val{};
                field(ar, key);
                field(ar, val);
                hint = v.emplace_hint(hint, std::move(key),
                                      std::move(val));
            }
        }
    } else if constexpr (SnapIsUnorderedMap<T>::value) {
        std::uint64_t n = fieldCount(ar, v.size());
        if constexpr (!Ar::kIsLoad) {
            using Item = std::pair<typename T::key_type,
                                   typename T::mapped_type>;
            std::vector<Item> items(v.begin(), v.end());
            std::sort(items.begin(), items.end(),
                      [](const Item &a, const Item &b) {
                          return a.first < b.first;
                      });
            for (auto &kv : items) {
                field(ar, kv.first);
                field(ar, kv.second);
            }
        } else {
            v.clear();
            v.reserve(static_cast<std::size_t>(n));
            for (std::uint64_t i = 0; i < n; ++i) {
                typename T::key_type key{};
                typename T::mapped_type val{};
                field(ar, key);
                field(ar, val);
                v.emplace(std::move(key), std::move(val));
            }
        }
    } else if constexpr (SnapIsUnorderedSet<T>::value) {
        std::uint64_t n = fieldCount(ar, v.size());
        if constexpr (!Ar::kIsLoad) {
            std::vector<typename T::key_type> keys(v.begin(), v.end());
            std::sort(keys.begin(), keys.end());
            for (auto &key : keys)
                field(ar, key);
        } else {
            v.clear();
            v.reserve(static_cast<std::size_t>(n));
            for (std::uint64_t i = 0; i < n; ++i) {
                typename T::key_type key{};
                field(ar, key);
                v.emplace(std::move(key));
            }
        }
    } else {
        SnapshotAccess::io(ar, v);
    }
}

} // namespace rab

#endif // RAB_SNAPSHOT_ARCHIVE_HH
