#include "store/crc32.h"

#include <array>

#include "base/little_endian.h"

namespace kbt::store {

namespace {

/// The CRC-32C (iSCSI) polynomial, reflected.
constexpr uint32_t kPoly = 0x82F63B78u;

/// Slicing-by-8 tables: kTables[0][b] is the CRC of byte b; kTables[k][b]
/// is that CRC advanced over k more zero bytes, so one lookup per table folds
/// eight input bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t crc) {
  const char* p = static_cast<const char*>(data);
  crc = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = LoadU32(p) ^ crc;
    const uint32_t hi = LoadU32(p + 4);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ static_cast<uint8_t>(*p)) & 0xFF];
  }
  return ~crc;
}

}  // namespace kbt::store
