#ifndef KBT_NET_FRAME_H_
#define KBT_NET_FRAME_H_

/// \file
/// The kbt wire protocol: length-prefixed, CRC-guarded binary frames.
///
/// Every message on a connection is one frame:
///
///   offset  size  field
///   0       4     magic       0x4B425457 ("KBTW"), little-endian
///   4       1     version     kWireVersion
///   5       1     type        FrameType
///   6       2     seq         request sequence number; replies echo it
///   8       4     payload_len bytes following the header (≤ kMaxPayload)
///   12      4     crc32c      CRC-32C of the payload bytes (store/crc32)
///
/// `seq` pins each reply to its request: a client numbers requests 1, 2, …
/// and discards any success reply whose echoed seq does not match the
/// request in flight. Without it, a duplicated frame (retransmission-style
/// fault) desyncs the strict request–reply pairing and a later read could
/// consume a stale reply of the right type — a silently *wrong answer*.
/// Frames originated outside a request–reply exchange (accept-time rejects)
/// use seq 0.
///
/// The header is fixed-size (kHeaderSize = 16) so a reader always knows how
/// many bytes to expect next; the CRC catches payload corruption and the
/// magic/version/len checks catch header corruption, desync and garbage.
/// Decoding is total: any malformed input yields a typed Status
/// (kDataLoss/kInvalidArgument), never a crash or an over-allocation — the
/// payload buffer is only sized after the length passed its cap.
///
/// Payloads are flat little-endian fields (base/little_endian.h) and
/// u32-length-prefixed strings, read back through PayloadReader. Hard caps —
/// frame length, antecedent chain depth, replication batch size — are
/// enforced at both encode and decode time, so a malicious or corrupt peer
/// cannot make the server allocate unboundedly.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace kbt::net {

inline constexpr uint32_t kWireMagic = 0x4B425457;  // "KBTW"
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kHeaderSize = 16;
/// Hard cap on one frame's payload. Large enough for any sane request or
/// reply, small enough that a corrupt length field cannot OOM the peer.
inline constexpr size_t kMaxPayload = 8u << 20;  // 8 MiB
/// Hard cap on a read request's antecedent chain depth.
inline constexpr size_t kMaxChainDepth = 64;
/// Hard cap on WAL records in one replication batch frame.
inline constexpr size_t kMaxReplBatch = 512;
/// Hard cap on epoch-history entries in a subscribe reply (one per promotion
/// over the store's lifetime; far beyond any sane deployment).
inline constexpr size_t kMaxEpochHistory = 4096;

enum class FrameType : uint8_t {
  kReadRequest = 1,        ///< client → server: one hypothetical read
  kReadReply = 2,          ///< server → client: ReadResult
  kApplyRequest = 3,       ///< client → server: transformation expression
  kApplyReply = 4,         ///< server → client: committed version
  kError = 5,              ///< server → client: typed Status (+ retry-after hint)
  kPing = 6,               ///< either direction: liveness probe
  kPong = 7,               ///< reply to kPing
  kStatsRequest = 8,       ///< client → server: server counters
  kStatsReply = 9,         ///< server → client: counter list
  kReplSubscribe = 10,     ///< follower → primary: replication handshake
  kReplSubscribeReply = 11,///< primary → follower: epoch + catch-up plan
  kReplFetch = 12,         ///< follower → primary: long-poll fetch (+ ack)
  kReplRecords = 13,       ///< primary → follower: WAL record batch
  kReplCkptFetch = 14,     ///< follower → primary: checkpoint chunk request
  kReplCkptChunk = 15,     ///< primary → follower: checkpoint chunk
};

/// True iff `t` is a defined FrameType value.
bool IsKnownFrameType(uint8_t t);

/// A decoded frame: type + owned payload bytes.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Serializes a frame (header + payload). Fails with kInvalidArgument when
/// the payload exceeds kMaxPayload.
StatusOr<std::string> EncodeFrame(FrameType type, std::string_view payload,
                                  uint16_t seq = 0);

/// A validated frame header.
struct FrameHeader {
  FrameType type = FrameType::kError;
  uint32_t payload_len = 0;
  uint16_t seq = 0;
};

/// Validates a header. Fails with kDataLoss on bad magic/version/type bytes
/// or an over-cap length. `header` must be exactly kHeaderSize bytes.
StatusOr<FrameHeader> DecodeHeader(std::string_view header);

/// Verifies the payload against the header's CRC. `header` must have passed
/// DecodeHeader; fails with kDataLoss on mismatch.
Status VerifyPayload(std::string_view header, std::string_view payload);

// ---------------------------------------------------------------------------
// Payload reads (little-endian, bounds-checked).

/// Cursor over a payload; every Get* checks bounds and fails with kDataLoss
/// instead of reading past the end.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}

  StatusOr<uint8_t> GetU8();
  StatusOr<uint32_t> GetU32();
  StatusOr<uint64_t> GetU64();
  /// Reads a u32-prefixed string; `max_len` guards against corrupt prefixes.
  StatusOr<std::string> GetString(size_t max_len = kMaxPayload);

  /// True when the cursor consumed every byte (trailing garbage = corrupt).
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Message payloads. Encode/Decode pairs for each frame type; decode is total.

struct WireReadRequest {
  std::vector<std::string> antecedents;
  std::string consequent;
  uint8_t modality = 0;  ///< 0 = necessarily, 1 = possibly
  uint64_t deadline_ms = 0;
};

std::string EncodeReadRequest(const WireReadRequest& r);
StatusOr<WireReadRequest> DecodeReadRequest(std::string_view payload);

struct WireReadReply {
  bool holds = false;
  uint64_t snapshot_version = 0;
};

std::string EncodeReadReply(const WireReadReply& r);
StatusOr<WireReadReply> DecodeReadReply(std::string_view payload);

struct WireApplyRequest {
  std::string expression;
};

std::string EncodeApplyRequest(const WireApplyRequest& r);
StatusOr<WireApplyRequest> DecodeApplyRequest(std::string_view payload);

struct WireApplyReply {
  uint64_t version = 0;
};

std::string EncodeApplyReply(const WireApplyReply& r);
StatusOr<WireApplyReply> DecodeApplyReply(std::string_view payload);

struct WireError {
  uint8_t code = 0;  ///< StatusCode as u8
  uint32_t retry_after_ms = 0;  ///< 0 = no hint; set on kUnavailable rejects
  std::string message;
  /// Where to go instead ("host:port"); set on kReadOnly rejects at a
  /// replica so a writing client can find the primary. Empty = no hint.
  std::string redirect;
};

std::string EncodeError(const WireError& e);
StatusOr<WireError> DecodeError(std::string_view payload);
/// Sugar: WireError from a Status (+ optional retry hint).
WireError ErrorFromStatus(const Status& status, uint32_t retry_after_ms = 0);
/// The inverse: a typed Status reconstructed from an error frame.
Status StatusFromError(const WireError& e);

struct WireStatsReply {
  /// (name, value) counter pairs, server-defined.
  std::vector<std::pair<std::string, uint64_t>> counters;
};

std::string EncodeStatsReply(const WireStatsReply& r);
StatusOr<WireStatsReply> DecodeStatsReply(std::string_view payload);

// ---------------------------------------------------------------------------
// Replication messages (primary/replica WAL shipping; see docs/replication.md).
//
// The protocol is pull-based strict request/reply: the follower subscribes,
// then long-polls record batches, so the existing seq/at-most-once machinery
// and retry rules apply to the replication link unchanged. A fetch's
// `after_lsn` doubles as the follower's durable ack — everything ≤ after_lsn
// is on the follower's own WAL — which drives both semi-sync commit waits and
// the primary's GC retention pin.

struct WireReplSubscribe {
  std::string follower_id;
  /// The follower's persisted epoch; 0 = never attached to any primary.
  uint64_t epoch = 0;
  /// The follower's committed lsn (meaningless when has_state = 0).
  uint64_t start_lsn = 0;
  /// 0 = fresh follower with no local store: always seeded by checkpoint.
  uint8_t has_state = 0;
};

std::string EncodeReplSubscribe(const WireReplSubscribe& r);
StatusOr<WireReplSubscribe> DecodeReplSubscribe(std::string_view payload);

struct WireReplSubscribeReply {
  std::string primary_id;
  uint64_t epoch = 0;
  uint64_t primary_lsn = 0;
  /// Oldest lsn fetchable from the primary's log files (the GC horizon):
  /// records with lsn > horizon_lsn can be shipped; a follower whose
  /// start_lsn is below it must re-seed from the snapshot.
  uint64_t horizon_lsn = 0;
  /// 1 = the follower must install checkpoint `snapshot_lsn` (chunked
  /// transfer) before fetching records.
  uint8_t need_snapshot = 0;
  uint64_t snapshot_lsn = 0;
  /// (epoch, start_lsn) per promotion, oldest first — the primary's lineage.
  /// The follower persists it; a future primary uses it to decide whether a
  /// stale-epoch subscriber's log is a safe prefix or must re-seed.
  std::vector<std::pair<uint64_t, uint64_t>> epoch_history;
};

std::string EncodeReplSubscribeReply(const WireReplSubscribeReply& r);
StatusOr<WireReplSubscribeReply> DecodeReplSubscribeReply(
    std::string_view payload);

struct WireReplFetch {
  std::string follower_id;
  /// The epoch the follower adopted at subscribe; a mismatch fences one side.
  uint64_t epoch = 0;
  /// Fetch records with lsn > after_lsn. Doubles as the durable ack.
  uint64_t after_lsn = 0;
  /// Long-poll bound: when no records are available, the primary parks the
  /// request up to this long before replying with an empty batch. Clamped
  /// server-side.
  uint32_t wait_ms = 0;
  uint32_t max_records = 0;  ///< 0 = server default (≤ kMaxReplBatch).
  uint32_t max_bytes = 0;    ///< 0 = server default.
};

std::string EncodeReplFetch(const WireReplFetch& r);
StatusOr<WireReplFetch> DecodeReplFetch(std::string_view payload);

struct WireReplRecords {
  /// The primary's epoch: a follower on a newer epoch refuses the batch.
  uint64_t epoch = 0;
  /// lsn of the first record in the batch (= request's after_lsn + 1).
  uint64_t start_lsn = 0;
  /// The primary's committed lsn at reply time (lag = primary_lsn - acked).
  uint64_t primary_lsn = 0;
  /// (kind, payload) pairs, exactly the store's WAL record bytes.
  std::vector<std::pair<uint8_t, std::string>> records;
};

std::string EncodeReplRecords(const WireReplRecords& r);
StatusOr<WireReplRecords> DecodeReplRecords(std::string_view payload);

struct WireReplCkptFetch {
  uint64_t lsn = 0;     ///< Which checkpoint (from the subscribe reply).
  uint64_t offset = 0;  ///< Byte offset into the checkpoint file.
  uint32_t max_bytes = 0;  ///< 0 = server default.
};

std::string EncodeReplCkptFetch(const WireReplCkptFetch& r);
StatusOr<WireReplCkptFetch> DecodeReplCkptFetch(std::string_view payload);

struct WireReplCkptChunk {
  uint64_t lsn = 0;
  uint64_t offset = 0;
  /// Total checkpoint file size; the transfer is done when
  /// offset + bytes.size() == total_size.
  uint64_t total_size = 0;
  std::string bytes;
};

std::string EncodeReplCkptChunk(const WireReplCkptChunk& r);
StatusOr<WireReplCkptChunk> DecodeReplCkptChunk(std::string_view payload);

}  // namespace kbt::net

#endif  // KBT_NET_FRAME_H_
