#include "sweep/store/result_store.hh"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/logging.hh"
#include "stats/json.hh"
#include "sweep/report.hh"

namespace fs = std::filesystem;

namespace rab
{

namespace
{

constexpr char kMagic[8] = {'R', 'A', 'B', 'S', 'T', 'O', 'R', 'E'};
constexpr char kSnapMagic[8] = {'R', 'A', 'B', 'S', 'N', 'A', 'P', 'R'};
constexpr std::uint32_t kRecordVersion = 1;
constexpr std::uint32_t kSnapRecordVersion = 1;
constexpr const char *kRecordSchema = "rab-store-record-v1";
/** Sanity bound: no record payload is anywhere near this large. */
constexpr std::uint64_t kMaxPayload = 64u << 20;

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xFFu);
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xFFu);
}

std::uint32_t
getU32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

/** Record payload: key echo + the full PointResult. */
Json
recordJson(const StoreKey &key, const PointResult &result)
{
    Json record = Json::object();
    record["schema"] = kRecordSchema;
    // Config-key schema echo: lets lookup() reject any record whose
    // key was hashed under a retired serialisation (e.g. pre-v2
    // records with no multi-core identity) even if the file name
    // somehow matches.
    record["config_schema"] = kConfigKeySchema;

    Json k = Json::object();
    k["git"] = key.gitSha;
    k["config"] = key.configHash;
    k["workload"] = key.workload;
    k["seed"] = key.seed;
    k["instructions"] = key.instructions;
    record["key"] = std::move(k);

    // Record birth time: reporting/debugging metadata only. It never
    // reaches a manifest (canonical or otherwise) — cached lookups
    // drop it — so record contents stay outside the determinism
    // boundary.
    // rablint: nondeterminism-ok=wall-clock (record timestamp is
    // write-once provenance metadata; never read back into results)
    const auto wall = std::chrono::system_clock::now();
    record["written_unix_ms"] = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            wall.time_since_epoch())
            .count());

    Json point = Json::object();
    point["workload"] = result.point.workload;
    point["variant"] = result.point.variant;
    point["runahead"] = static_cast<int>(result.point.runahead);
    point["prefetch"] = result.point.prefetch;
    point["seed"] = result.point.seed;
    point["metrics"] = simResultJson(result.result);
    Json stats = Json::object();
    for (const auto &[name, value] : result.stats)
        stats[name] = value;
    point["stats"] = std::move(stats);
    point["wall_seconds"] = result.wallSeconds;
    record["point"] = std::move(point);
    return record;
}

/** Inverse of recordJson's "point" member. Throws JsonError. */
PointResult
pointFromRecord(const Json &record)
{
    const Json &point = record.at("point");
    PointResult pr;
    pr.ok = true;
    pr.ran = true; // It ran — in the run that wrote the record.
    pr.cached = true;
    pr.point.workload = point.at("workload").asString();
    pr.point.variant = point.at("variant").asString();
    pr.point.runahead = static_cast<RunaheadConfig>(
        static_cast<int>(point.at("runahead").asDouble()));
    pr.point.prefetch = point.at("prefetch").asBool();
    pr.point.seed = point.at("seed").asU64();
    pr.result = simResultFromJson(point.at("metrics"));
    for (const auto &[name, value] : point.at("stats").members())
        pr.stats.emplace(name, value.asDouble());
    pr.wallSeconds = point.at("wall_seconds").asDouble();
    return pr;
}

/** Validate the shared 24-byte record frame (magic, version, length,
 *  CRC) of @p raw; on success @p payload receives the payload bytes. */
bool
unframeRecord(const std::string &raw, const char (&magic)[8],
              std::uint32_t version, std::string &payload)
{
    constexpr std::size_t kHeader = 8 + 4 + 4 + 8;
    if (raw.size() < kHeader)
        return false;
    if (std::memcmp(raw.data(), magic, 8) != 0)
        return false;
    const auto *p = reinterpret_cast<const unsigned char *>(raw.data());
    if (getU32(p + 8) != version)
        return false;
    const std::uint32_t crc = getU32(p + 12);
    const std::uint64_t length = getU64(p + 16);
    if (length > kMaxPayload || raw.size() != kHeader + length)
        return false;
    if (crc32(raw.data() + kHeader, length) != crc)
        return false;
    payload = raw.substr(kHeader, length);
    return true;
}

/** Frame @p payload: magic + version + CRC + length + payload. */
std::string
frameRecord(const char (&magic)[8], std::uint32_t version,
            const std::string &payload)
{
    std::string blob;
    blob.reserve(24 + payload.size());
    blob.append(magic, 8);
    putU32(blob, version);
    putU32(blob, crc32(payload.data(), payload.size()));
    putU64(blob, payload.size());
    blob += payload;
    return blob;
}

} // namespace

std::string
SnapshotStoreKey::canonical() const
{
    std::string s;
    s += "git=" + gitSha + "\n";
    s += "warmup_digest=" + warmupDigestHex + "\n";
    s += "workload=" + workload + "\n";
    s += strprintf("seed=%llu\n", (unsigned long long)seed);
    s += strprintf("warmup_instructions=%llu\n",
                   (unsigned long long)warmupInstructions);
    s += strprintf("format=%lu\n", (unsigned long)formatVersion);
    return s;
}

std::string
SnapshotStoreKey::hashHex() const
{
    return hex64(fnv1a64(canonical()));
}

ResultStore::ResultStore(std::string root) : root_(std::move(root))
{
    std::error_code ec;
    fs::create_directories(fs::path(root_) / "tmp", ec);
    if (ec) {
        error_ = "cannot create store root '" + root_
            + "': " + ec.message();
        return;
    }
    ok_ = true;
}

std::string
ResultStore::recordPath(const StoreKey &key) const
{
    const std::string hash = key.hashHex();
    return root_ + "/" + hash.substr(0, 2) + "/" + hash + ".rec";
}

std::string
ResultStore::snapshotPath(const SnapshotStoreKey &key) const
{
    return root_ + "/sn/" + key.hashHex() + ".snap";
}

bool
ResultStore::readRecord(const std::string &path, const StoreKey &key,
                        PointResult &out) const
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();

    std::string payload;
    if (!unframeRecord(buffer.str(), kMagic, kRecordVersion, payload))
        return false;

    try {
        const Json record = Json::parse(payload);
        if (record.at("schema").asString() != kRecordSchema)
            return false;
        // Records predating the config-key v2 bump lack the echo (or
        // carry a stale one); Json::at throws on the missing field,
        // landing in the catch below — either way the record reads as
        // absent and is self-healed away.
        if (record.at("config_schema").asString() != kConfigKeySchema)
            return false;
        // Key echo: a hash collision or a misplaced file must read
        // as a miss, never as someone else's result.
        const Json &k = record.at("key");
        if (k.at("git").asString() != key.gitSha
            || k.at("config").asString() != key.configHash
            || k.at("workload").asString() != key.workload
            || k.at("seed").asU64() != key.seed
            || k.at("instructions").asU64() != key.instructions)
            return false;
        out = pointFromRecord(record);
    } catch (const JsonError &) {
        return false;
    }
    return true;
}

std::optional<PointResult>
ResultStore::lookup(const StoreKey &key)
{
    if (!ok_) {
        ++misses_;
        return std::nullopt;
    }
    const std::string path = recordPath(key);
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        ++misses_;
        return std::nullopt;
    }
    PointResult result;
    if (!readRecord(path, key, result)) {
        // Self-healing: a truncated or corrupted record is discarded
        // and recomputed, not crashed on.
        fs::remove(path, ec);
        ++corruptDiscarded_;
        ++misses_;
        return std::nullopt;
    }
    ++hits_;
    return result;
}

bool
ResultStore::put(const StoreKey &key, const PointResult &result)
{
    if (!ok_ || !result.ok)
        return false;
    if (!writeBlobAtomic(recordPath(key), key.hashHex(),
                         frameRecord(kMagic, kRecordVersion,
                                     recordJson(key, result).dump())))
        return false;
    ++stored_;
    return true;
}

bool
ResultStore::readSnapshotRecord(const std::string &path,
                                const SnapshotStoreKey &key,
                                std::string &out) const
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();

    std::string payload;
    if (!unframeRecord(buffer.str(), kSnapMagic, kSnapRecordVersion,
                       payload))
        return false;

    // Payload = key canonical echo + NUL + snapshot bytes. The echo
    // plays the same role as result records' JSON key echo: a hash
    // collision or misplaced file reads as a miss, never as a foreign
    // warmup image.
    const std::string echo = key.canonical();
    if (payload.size() < echo.size() + 1)
        return false;
    if (payload.compare(0, echo.size(), echo) != 0
        || payload[echo.size()] != '\0')
        return false;
    out = payload.substr(echo.size() + 1);
    return true;
}

std::optional<std::string>
ResultStore::lookupSnapshot(const SnapshotStoreKey &key)
{
    if (!ok_) {
        ++snapshotMisses_;
        return std::nullopt;
    }
    const std::string path = snapshotPath(key);
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        ++snapshotMisses_;
        return std::nullopt;
    }
    std::string payload;
    if (!readSnapshotRecord(path, key, payload)) {
        fs::remove(path, ec);
        ++corruptDiscarded_;
        ++snapshotMisses_;
        return std::nullopt;
    }
    ++snapshotHits_;
    return payload;
}

bool
ResultStore::putSnapshot(const SnapshotStoreKey &key,
                         const std::string &payload)
{
    if (!ok_)
        return false;
    if (!writeBlobAtomic(snapshotPath(key), key.hashHex(),
                         frameRecord(kSnapMagic, kSnapRecordVersion,
                                     key.canonical() + '\0' + payload)))
        return false;
    ++snapshotStored_;
    return true;
}

bool
ResultStore::writeBlobAtomic(const std::string &final_path,
                             const std::string &stem,
                             const std::string &blob)
{
    std::error_code ec;
    fs::create_directories(fs::path(final_path).parent_path(), ec);
    if (ec)
        return false;

    // Unique temp name: pid + an in-process sequence number, so
    // concurrent writers (threads or processes) never collide.
    const std::string tmp_path = root_ + "/tmp/" + stem + "."
        + std::to_string(
#ifdef __unix__
            static_cast<unsigned long>(::getpid())
#else
            0ul
#endif
                )
        + "." + std::to_string(tempSeq_.fetch_add(1)) + ".tmp";

#ifdef __unix__
    const int fd =
        ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0)
        return false;
    std::size_t written = 0;
    while (written < blob.size()) {
        const ssize_t n = ::write(fd, blob.data() + written,
                                  blob.size() - written);
        if (n <= 0) {
            ::close(fd);
            ::unlink(tmp_path.c_str());
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    // fsync before rename: the record must be durable before it
    // becomes visible, else a crash could leave a valid-looking name
    // with garbage content.
    if (::fsync(fd) != 0) {
        ::close(fd);
        ::unlink(tmp_path.c_str());
        return false;
    }
    ::close(fd);
    if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
        ::unlink(tmp_path.c_str());
        return false;
    }
    // Durable directory entry: fsync the containing directory.
    const int dirfd = ::open(
        fs::path(final_path).parent_path().c_str(), O_RDONLY);
    if (dirfd >= 0) {
        ::fsync(dirfd);
        ::close(dirfd);
    }
#else
    {
        std::ofstream out(tmp_path, std::ios::binary);
        if (!out)
            return false;
        out.write(blob.data(),
                  static_cast<std::streamsize>(blob.size()));
        if (!out) {
            fs::remove(tmp_path, ec);
            return false;
        }
    }
    fs::rename(tmp_path, final_path, ec);
    if (ec) {
        fs::remove(tmp_path, ec);
        return false;
    }
#endif
    return true;
}

} // namespace rab
