/**
 * @file
 * Crash-safe file replacement for the files that must survive a kill
 * -9 or a power cut: result-store records and snapshot images.
 */

#ifndef RAB_COMMON_DURABLE_FILE_HH
#define RAB_COMMON_DURABLE_FILE_HH

#include <string>
#include <string_view>

namespace rab
{

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
