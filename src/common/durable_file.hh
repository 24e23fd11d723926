/**
 * @file
 * The files that must survive a kill -9 or a power cut: result-store
 * records, warmup-image records and snapshot files. All three share
 * one CRC frame and one crash-safe replacement.
 *
 * Frame (little-endian):
 *
 *   magic   8 bytes, one per file kind
 *   version u32
 *   crc32   u32 over the body bytes
 *   length  u64 body byte count
 *   body
 */

#ifndef RAB_COMMON_DURABLE_FILE_HH
#define RAB_COMMON_DURABLE_FILE_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace rab
{

/** Why unframeBytes() refused a frame, in the order it checks. */
enum class FrameStatus
{
    kOk,
    kTruncated, ///< Header cut, or length disagrees with the bytes present.
    kMagic,
    kVersion,
    kCrc,
};

/** @p body inside the frame, under @p magic and @p version. */
std::string frameBytes(const char (&magic)[8], std::uint32_t version,
                       std::string_view body);

/**
 * Check @p raw's frame: a whole header, then @p magic, @p version, a
 * length equal to the bytes that follow, and the body's CRC. On kOk
 * @p body receives the body; otherwise it is left untouched.
 */
FrameStatus unframeBytes(std::string_view raw, const char (&magic)[8],
                         std::uint32_t version, std::string &body);

/**
 * Replace @p path with @p bytes: write them to @p tmp_path (created
 * exclusively, so concurrent writers need distinct names), fsync it,
 * rename it over @p path, then fsync @p path's directory so the new
 * entry survives a crash too. A reader sees the old file or the whole
 * new one, never a torn one. On failure the temp file is removed and
 * a one-line reason returned; "" on success.
 */
std::string writeFileDurably(const std::string &tmp_path,
                             const std::string &path,
                             std::string_view bytes);

} // namespace rab

#endif // RAB_COMMON_DURABLE_FILE_HH
