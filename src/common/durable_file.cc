#include "common/durable_file.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/logging.hh"

namespace rab
{

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

    std::string dir = std::filesystem::path(path).parent_path().string();
    if (dir.empty())
        dir = ".";
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
