#include "common/durable_file.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/hash.hh"
#include "common/logging.hh"

namespace rab
{

namespace
{

constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8;

void
putLe(std::string &out, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xFFu);
}

std::uint64_t
getLe(std::string_view in, std::size_t at, int bytes)
{
    std::uint64_t v = 0;
    for (int i = bytes - 1; i >= 0; --i)
        v = (v << 8) | static_cast<unsigned char>(in[at + i]);
    return v;
}

} // namespace

std::string
frameBytes(const char (&magic)[8], std::uint32_t version,
           std::string_view body)
{
    std::string framed;
    framed.reserve(kHeaderBytes + body.size());
    framed.append(magic, sizeof(magic));
    putLe(framed, version, 4);
    putLe(framed, crc32(body.data(), body.size()), 4);
    putLe(framed, body.size(), 8);
    framed += body;
    return framed;
}

FrameStatus
unframeBytes(std::string_view raw, const char (&magic)[8],
             std::uint32_t version, std::string &body)
{
    if (raw.size() < kHeaderBytes)
        return FrameStatus::kTruncated;
    if (std::memcmp(raw.data(), magic, sizeof(magic)) != 0)
        return FrameStatus::kMagic;
    if (getLe(raw, 8, 4) != version)
        return FrameStatus::kVersion;
    const std::string_view framed_body = raw.substr(kHeaderBytes);
    if (getLe(raw, 16, 8) != framed_body.size())
        return FrameStatus::kTruncated;
    if (crc32(framed_body.data(), framed_body.size()) != getLe(raw, 12, 4))
        return FrameStatus::kCrc;
    body = framed_body;
    return FrameStatus::kOk;
}

std::string
writeFileDurably(const std::string &tmp_path, const std::string &path,
                 std::string_view bytes)
{
    // Why step @p what failed on @p name (from errno); removes the
    // temp file this call created.
    const auto fail = [&](const char *what, const std::string &name) {
        const std::string reason = strprintf("%s %s: %s", what, name.c_str(),
                                             std::strerror(errno));
        ::unlink(tmp_path.c_str());
        return reason;
    };

    const int fd =
        ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0) {
        return strprintf("open %s: %s", tmp_path.c_str(),
                         std::strerror(errno));
    }
    std::size_t written = 0;
    while (written < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + written,
                                  bytes.size() - written);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            const std::string reason = fail("write", tmp_path);
            ::close(fd);
            return reason;
        }
        written += static_cast<std::size_t>(n);
    }
    // fsync before rename: the file must be durable before it becomes
    // visible, else a crash could leave the final name over garbage.
    if (::fsync(fd) != 0) {
        const std::string reason = fail("fsync", tmp_path);
        ::close(fd);
        return reason;
    }
    if (::close(fd) != 0)
        return fail("close", tmp_path);
    if (::rename(tmp_path.c_str(), path.c_str()) != 0)
        return fail("rename", tmp_path + " -> " + path);

    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    const std::string dir = parent.empty() ? "." : parent.string();
    const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd < 0)
        return strprintf("open %s: %s", dir.c_str(), std::strerror(errno));
    const int synced = ::fsync(dir_fd);
    const int err = errno;
    ::close(dir_fd);
    if (synced != 0)
        return strprintf("fsync %s: %s", dir.c_str(), std::strerror(err));
    return "";
}

} // namespace rab
