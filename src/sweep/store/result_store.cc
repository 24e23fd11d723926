#include "sweep/store/result_store.hh"

#include <filesystem>
#include <fstream>
#include <iterator>

#include <unistd.h>

#include "common/durable_file.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "stats/json.hh"
#include "sweep/report.hh"

namespace fs = std::filesystem;

namespace rab
{

namespace
{

constexpr char kResultMagic[8] = {'R', 'A', 'B', 'S', 'T', 'O', 'R', 'E'};
constexpr char kSnapMagic[8] = {'R', 'A', 'B', 'S', 'N', 'A', 'P', 'R'};
constexpr std::uint32_t kResultVersion = 2;
constexpr std::uint32_t kSnapVersion = 1;

} // namespace

std::string
SnapshotStoreKey::canonical() const
{
    std::string s;
    s += "git=" + gitSha + "\n";
    s += "warmup_digest=" + warmupDigestHex + "\n";
    for (const std::string &workload : workloads)
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

std::optional<std::string>
ResultStore::lookupBody(const std::string &path, const char (&magic)[8],
                        std::uint32_t version, const std::string &echo)
{
    if (!ok_)
        return std::nullopt;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt; // Absent: a plain miss.
    const std::string raw((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    // The key echo: a hash collision or a misplaced file reads as a
    // miss, never as someone else's record.
    std::string body;
    if (unframeBytes(raw, magic, version, body) == FrameStatus::kOk
        && body.size() > echo.size()
        && body.compare(0, echo.size(), echo) == 0
        && body[echo.size()] == '\0') {
        body.erase(0, echo.size() + 1);
        return body;
    }
    discard(path);
    return std::nullopt;
}

void
ResultStore::discard(const std::string &path)
{
    // Self-healing: a torn or corrupt record is recomputed, not
    // crashed on.
    std::error_code ec;
    fs::remove(path, ec);
    ++corruptDiscarded_;
}

bool
ResultStore::putBody(const std::string &path, const char (&magic)[8],
                     std::uint32_t version, const std::string &echo,
                     std::string_view body)
{
    if (!ok_)
        return false;
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (ec)
        return false;
    std::string framed_body = echo;
    framed_body += '\0';
    framed_body += body;
    // Unique temp name: pid + an in-process sequence number, so
    // concurrent writers (threads or processes) never collide.
    const std::string tmp_path = root_ + "/tmp/"
        + fs::path(path).stem().string() + "."
        + std::to_string(::getpid()) + "."
        + std::to_string(tempSeq_.fetch_add(1)) + ".tmp";
    return writeFileDurably(tmp_path, path,
                            frameBytes(magic, version, framed_body))
        .empty();
}

std::optional<PointResult>
ResultStore::lookup(const StoreKey &key)
{
    const std::string path = recordPath(key);
    if (auto body =
            lookupBody(path, kResultMagic, kResultVersion, key.canonical())) {
        try {
            PointResult result = pointFromJson(Json::parse(*body));
            result.ran = true; // It ran — in the run that wrote it.
            result.cached = true;
            ++hits_;
            return result;
        } catch (const JsonError &) {
            discard(path);
        }
    }
    ++misses_;
    return std::nullopt;
}

bool
ResultStore::put(const StoreKey &key, const PointResult &result)
{
    if (!result.ok
        || !putBody(recordPath(key), kResultMagic, kResultVersion,
                    key.canonical(), pointJson(result, false).dump()))
        return false;
    ++stored_;
    return true;
}

std::optional<std::string>
ResultStore::lookupSnapshot(const SnapshotStoreKey &key)
{
    auto payload = lookupBody(snapshotPath(key), kSnapMagic, kSnapVersion,
                              key.canonical());
    if (payload)
        ++snapshotHits_;
    else
        ++snapshotMisses_;
    return payload;
}

bool
ResultStore::putSnapshot(const SnapshotStoreKey &key,
                         const std::string &payload)
{
    if (!putBody(snapshotPath(key), kSnapMagic, kSnapVersion,
                 key.canonical(), payload))
        return false;
    ++snapshotStored_;
    return true;
}

} // namespace rab
