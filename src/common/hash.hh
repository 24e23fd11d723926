/**
 * @file
 * The byte hashes every persistent format shares: 64-bit FNV-1a for
 * config digests, snapshot content hashes and store keys, CRC-32 for
 * the snapshot and store file frames, and the fixed-width hex text
 * every 64-bit hash is printed as. Their outputs are part of those
 * formats, so they must never change.
 */

#ifndef RAB_COMMON_HASH_HH
#define RAB_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace rab
{

/** 64-bit FNV-1a over the bytes of @p bytes. */
std::uint64_t fnv1a64(std::string_view bytes);

/** CRC-32 (IEEE 802.3) over @p size bytes at @p data. */
std::uint32_t crc32(const void *data, std::size_t size);

/** @p value as a fixed-width 16-digit lowercase hex string. */
std::string hex64(std::uint64_t value);

} // namespace rab

#endif // RAB_COMMON_HASH_HH
