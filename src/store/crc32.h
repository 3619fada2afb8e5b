#ifndef KBT_STORE_CRC32_H_
#define KBT_STORE_CRC32_H_

/// \file
/// CRC-32C (Castagnoli) for guarding stored and sent bytes: WAL records,
/// checkpoint payloads, replication metadata and wire frames. Software
/// slicing-by-8: eight table lookups fold eight bytes, loaded as two
/// little-endian words (base/little_endian.h), so the values are the bytewise
/// reflected CRC's on every host.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace kbt::store {

/// CRC-32C of `data`, optionally extending a previous crc (pass the previous
/// return value to checksum a logical stream in pieces).
uint32_t Crc32c(const void* data, size_t n, uint32_t crc = 0);

inline uint32_t Crc32c(std::string_view data, uint32_t crc = 0) {
  return Crc32c(data.data(), data.size(), crc);
}

}  // namespace kbt::store

#endif  // KBT_STORE_CRC32_H_
