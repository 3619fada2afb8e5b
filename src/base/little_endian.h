#ifndef KBT_BASE_LITTLE_ENDIAN_H_
#define KBT_BASE_LITTLE_ENDIAN_H_

/// \file
/// Little-endian fixed-width integers, the byte order of every kbt format:
/// the WAL, checkpoints, relation blobs, replication metadata and wire frames.
/// Append* extend a byte string; Load* decode from a pointer the caller has
/// already bounds-checked. Each format keeps its own checked reader and its
/// own error messages. The byte expressions are written out, not looped, so
/// the compiler turns each into one load or store on little-endian hosts.

#include <cstdint>
#include <string>

namespace kbt {

inline void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void AppendU16(std::string* out, uint16_t v) {
  const char bytes[2] = {static_cast<char>(v), static_cast<char>(v >> 8)};
  out->append(bytes, sizeof(bytes));
}

inline void AppendU32(std::string* out, uint32_t v) {
  const char bytes[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                         static_cast<char>(v >> 16),
                         static_cast<char>(v >> 24)};
  out->append(bytes, sizeof(bytes));
}

inline void AppendU64(std::string* out, uint64_t v) {
  AppendU32(out, static_cast<uint32_t>(v));
  AppendU32(out, static_cast<uint32_t>(v >> 32));
}

inline uint16_t LoadU16(const char* p) {
  return static_cast<uint16_t>(static_cast<uint8_t>(p[0]) |
                               static_cast<uint8_t>(p[1]) << 8);
}

inline uint32_t LoadU32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

inline uint64_t LoadU64(const char* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}

}  // namespace kbt

#endif  // KBT_BASE_LITTLE_ENDIAN_H_
