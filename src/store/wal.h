#ifndef KBT_STORE_WAL_H_
#define KBT_STORE_WAL_H_

/// \file
/// The semantic write-ahead log: an append-only file of committed
/// *transformations*, not page images. The paper makes μ/τ/insert/delete
/// expressions the first-class objects and their results deterministic
/// (knowledgebases are canonical values), so logging the expression is enough
/// to reproduce the state — recovery replays the suffix through the engine and
/// lands on a bit-identical knowledgebase.
///
/// File layout:
///
///   header:  magic "KBTWAL" (6 bytes), u16 version, u64 start_lsn
///   record:  u32 crc32c(kind ‖ payload), u32 payload_len, u8 kind, payload
///
/// (integers little-endian). Records are length-prefixed and CRC-guarded; a
/// torn or partial tail record — the signature of a crash mid-append — is
/// detected and logically truncated by the reader, which reports the number of
/// bytes that form the valid prefix so the writer can physically truncate
/// before appending again.
///
/// Record kinds:
///   kTransform — payload is a transformation expression in the concrete
///                syntax of core/expr_parser.h ("tau{...} >> glb >> pi[R]").
///   kInsert /
///   kDelete    — an explicit tuple delta against one relation: cheap bulk
///                loads and deletions that skip the μ machinery on replay.
///                Payload: u32 name_len, name, u32 arity, u32 rows, then
///                rows × arity × (u32 len, bytes) constant names.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/interner.h"
#include "base/status.h"
#include "rel/relation.h"
#include "rel/schema.h"
#include "store/file.h"

namespace kbt::store {

inline constexpr char kWalMagic[6] = {'K', 'B', 'T', 'W', 'A', 'L'};
inline constexpr uint16_t kWalVersion = 1;
/// Bytes of the file header (magic + version + start_lsn).
inline constexpr size_t kWalHeaderSize = 6 + 2 + 8;
/// Bytes each record adds on top of its payload (crc + payload_len + kind).
inline constexpr size_t kWalRecordHeadSize = 4 + 4 + 1;

enum class WalRecordKind : uint8_t {
  kTransform = 1,
  kInsert = 2,
  kDelete = 3,
};

struct WalRecord {
  WalRecordKind kind = WalRecordKind::kTransform;
  std::string payload;

  friend bool operator==(const WalRecord& a, const WalRecord& b) {
    return a.kind == b.kind && a.payload == b.payload;
  }
};

/// Builds the payload of a kInsert/kDelete record.
std::string EncodeTupleDelta(std::string_view relation, size_t arity,
                             const std::vector<std::vector<std::string>>& rows);

/// Interns the names read from one encoded payload, each distinct name once:
/// a payload repeats a handful of names thousands of times, and the
/// process-wide interner takes a lock per call. Keys are views into the
/// payload, which must outlive the cache.
class PayloadNames {
 public:
  Symbol Intern(std::string_view name);

 private:
  std::unordered_map<std::string_view, Symbol> symbols_;
};

/// One decoded EncodeTupleDelta payload: its relation's schema position and
/// its rows.
struct DecodedDelta {
  size_t pos = 0;
  Relation rows;
};

/// Decodes an EncodeTupleDelta payload (a kInsert/kDelete record, or one
/// block of a checkpoint overlay) straight into a relation of `schema`, with
/// no string or vector per value. Bounds-checked; kDataLoss on a truncated
/// name, arity, row count or value, an arity over 10^6, a zero-ary row count
/// over 1, rows × arity beyond the payload, an undeclared relation, an arity
/// mismatch with the schema, or trailing bytes.
StatusOr<DecodedDelta> ParseTupleDelta(std::string_view payload,
                                       const Schema& schema,
                                       PayloadNames* names);

/// Appends records to a WAL file. The caller owns commit policy: Append just
/// buffers into the OS, Sync makes everything appended so far durable.
class WalWriter {
 public:
  /// Wraps an open handle positioned at the end of a valid WAL (or an empty
  /// file). `file_size` is the current size; when 0 a fresh header carrying
  /// `start_lsn` is appended first.
  static StatusOr<std::unique_ptr<WalWriter>> Create(
      std::unique_ptr<File> file, uint64_t file_size, uint64_t start_lsn);

  Status Append(const WalRecord& record);
  Status Sync();
  Status Close();

 private:
  explicit WalWriter(std::unique_ptr<File> file) : file_(std::move(file)) {}

  std::unique_ptr<File> file_;
};

/// Result of scanning a WAL file's contents.
struct WalContents {
  uint64_t start_lsn = 0;
  std::vector<WalRecord> records;
  /// Bytes forming the valid prefix (header + whole records). When less than
  /// the input size, the tail was torn or corrupt and must be truncated before
  /// appending.
  uint64_t valid_bytes = 0;
};

/// Parses a WAL file image. A bad header is an error (kDataLoss); a torn or
/// CRC-corrupt tail is NOT — the scan stops there and reports the valid
/// prefix, which is exactly the crash-recovery contract.
StatusOr<WalContents> ReadWal(std::string_view bytes);

}  // namespace kbt::store

#endif  // KBT_STORE_WAL_H_
