#ifndef KBT_BASE_LITTLE_ENDIAN_H_
#define KBT_BASE_LITTLE_ENDIAN_H_

/// \file
/// Little-endian fixed-width integers, the byte order of every kbt format:
/// the WAL and its tuple deltas, checkpoints, replication metadata and wire
/// frames. Append* extend a byte string; Load* decode from a pointer the
/// caller has already bounds-checked; ByteReader is the one bounds-checked
/// cursor every decoder reads through. The byte expressions are written out,
/// not looped, so the compiler turns each into one load or store on
/// little-endian hosts.

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "base/status.h"

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

/// Bounds-checked cursor over a byte view. Each Read* returns the next field
/// and moves past it, or fails with kDataLoss "truncated <format> reading
/// <field>" instead of reading past the end, so a corrupt input names what it
/// broke. The views ReadString returns point into the input.
class ByteReader {
 public:
  /// `format` names the input in errors ("checkpoint", "tuple delta", ...);
  /// it must outlive the reader, as a string literal does.
  ByteReader(std::string_view bytes, const char* format)
      : bytes_(bytes), format_(format) {}

  size_t remaining() const { return bytes_.size() - pos_; }
  /// True when every byte was read (trailing bytes are corruption).
  bool AtEnd() const { return pos_ == bytes_.size(); }

  StatusOr<uint8_t> ReadU8(const char* field) {
    if (remaining() < 1) return Truncated(field);
    return static_cast<uint8_t>(bytes_[pos_++]);
  }

  StatusOr<uint32_t> ReadU32(const char* field) {
    if (remaining() < 4) return Truncated(field);
    const uint32_t v = LoadU32(bytes_.data() + pos_);
    pos_ += 4;
    return v;
  }

  StatusOr<uint64_t> ReadU64(const char* field) {
    if (remaining() < 8) return Truncated(field);
    const uint64_t v = LoadU64(bytes_.data() + pos_);
    pos_ += 8;
    return v;
  }

  /// A u32 length, then that many bytes. A length over `max_len` fails
  /// before the bytes are looked at.
  StatusOr<std::string_view> ReadString(
      const char* field,
      size_t max_len = std::numeric_limits<size_t>::max()) {
    if (remaining() < 4) return Truncated(field);
    const uint32_t len = LoadU32(bytes_.data() + pos_);
    if (len > max_len) return OverCap(field, len);
    if (remaining() - 4 < len) return Truncated(field);
    const std::string_view v(bytes_.data() + pos_ + 4, len);
    pos_ += 4 + size_t{len};
    return v;
  }

  /// ReadString for hot loops, with no StatusOr per call: false, with nothing
  /// read, when the input ends first; the caller returns Truncated(field).
  bool TryReadString(std::string_view* v) {
    if (remaining() < 4) return false;
    const uint32_t len = LoadU32(bytes_.data() + pos_);
    if (remaining() - 4 < len) return false;
    *v = std::string_view(bytes_.data() + pos_ + 4, len);
    pos_ += 4 + size_t{len};
    return true;
  }

  /// kDataLoss "truncated <format> reading <field>". Out of line and cold,
  /// so each read path stays a bounds check and a load.
  [[gnu::noinline, gnu::cold]] Status Truncated(const char* field) const {
    return Status::DataLoss(std::string("truncated ") + format_ +
                            " reading " + field);
  }

 private:
  [[gnu::noinline, gnu::cold]] Status OverCap(const char* field,
                                              uint32_t len) const {
    return Status::DataLoss(std::string(format_) + " " + field +
                            " over cap: " + std::to_string(len));
  }

  std::string_view bytes_;
  const char* format_;
  size_t pos_ = 0;
};

}  // namespace kbt

#endif  // KBT_BASE_LITTLE_ENDIAN_H_
