#include "net/frame.h"

#include <cstring>

#include "base/little_endian.h"
#include "store/crc32.h"

namespace kbt::net {

namespace {

/// u32 length prefix + bytes.
void PutString(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

}  // namespace

bool IsKnownFrameType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kReadRequest) &&
         t <= static_cast<uint8_t>(FrameType::kReplCkptChunk);
}

StatusOr<std::string> EncodeFrame(FrameType type, std::string_view payload,
                                  uint16_t seq) {
  if (payload.size() > kMaxPayload) {
    return Status::InvalidArgument("frame payload exceeds cap: " +
                                   std::to_string(payload.size()));
  }
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  AppendU32(&out, kWireMagic);
  AppendU8(&out, kWireVersion);
  AppendU8(&out, static_cast<uint8_t>(type));
  AppendU16(&out, seq);
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  AppendU32(&out, store::Crc32c(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

StatusOr<FrameHeader> DecodeHeader(std::string_view header) {
  if (header.size() != kHeaderSize) {
    return Status::DataLoss("frame header truncated: " +
                            std::to_string(header.size()) + " bytes");
  }
  const char* p = header.data();
  if (LoadU32(p) != kWireMagic) {
    return Status::DataLoss("bad frame magic");
  }
  uint8_t version = static_cast<uint8_t>(p[4]);
  if (version != kWireVersion) {
    return Status::DataLoss("unsupported wire version " +
                            std::to_string(version));
  }
  uint8_t type = static_cast<uint8_t>(p[5]);
  if (!IsKnownFrameType(type)) {
    return Status::DataLoss("unknown frame type " + std::to_string(type));
  }
  FrameHeader h;
  h.type = static_cast<FrameType>(type);
  h.seq = LoadU16(p + 6);
  h.payload_len = LoadU32(p + 8);
  if (h.payload_len > kMaxPayload) {
    return Status::DataLoss("frame payload length over cap: " +
                            std::to_string(h.payload_len));
  }
  return h;
}

Status VerifyPayload(std::string_view header, std::string_view payload) {
  if (header.size() != kHeaderSize) {
    return Status::DataLoss("frame header truncated");
  }
  uint32_t expected = LoadU32(header.data() + 12);
  uint32_t actual = store::Crc32c(payload.data(), payload.size());
  if (expected != actual) {
    return Status::DataLoss("frame payload CRC mismatch");
  }
  return Status::OK();
}

StatusOr<uint8_t> PayloadReader::GetU8() {
  if (pos_ + 1 > data_.size()) return Status::DataLoss("payload underrun (u8)");
  return static_cast<uint8_t>(data_[pos_++]);
}

StatusOr<uint32_t> PayloadReader::GetU32() {
  if (pos_ + 4 > data_.size()) return Status::DataLoss("payload underrun (u32)");
  uint32_t v = LoadU32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

StatusOr<uint64_t> PayloadReader::GetU64() {
  if (pos_ + 8 > data_.size()) return Status::DataLoss("payload underrun (u64)");
  uint64_t v = LoadU64(data_.data() + pos_);
  pos_ += 8;
  return v;
}

StatusOr<std::string> PayloadReader::GetString(size_t max_len) {
  KBT_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  if (len > max_len) {
    return Status::DataLoss("string field over cap: " + std::to_string(len));
  }
  if (pos_ + len > data_.size()) {
    return Status::DataLoss("payload underrun (string)");
  }
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

// ---------------------------------------------------------------------------
// Messages

std::string EncodeReadRequest(const WireReadRequest& r) {
  std::string out;
  AppendU64(&out, r.deadline_ms);
  AppendU8(&out, r.modality);
  AppendU32(&out, static_cast<uint32_t>(r.antecedents.size()));
  for (const std::string& a : r.antecedents) PutString(&out, a);
  PutString(&out, r.consequent);
  return out;
}

StatusOr<WireReadRequest> DecodeReadRequest(std::string_view payload) {
  PayloadReader reader(payload);
  WireReadRequest r;
  KBT_ASSIGN_OR_RETURN(r.deadline_ms, reader.GetU64());
  KBT_ASSIGN_OR_RETURN(r.modality, reader.GetU8());
  if (r.modality > 1) {
    return Status::DataLoss("bad modality byte " + std::to_string(r.modality));
  }
  KBT_ASSIGN_OR_RETURN(uint32_t n, reader.GetU32());
  if (n > kMaxChainDepth) {
    return Status::DataLoss("antecedent chain over cap: " + std::to_string(n));
  }
  r.antecedents.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    KBT_ASSIGN_OR_RETURN(std::string a, reader.GetString());
    r.antecedents.push_back(std::move(a));
  }
  KBT_ASSIGN_OR_RETURN(r.consequent, reader.GetString());
  if (!reader.AtEnd()) return Status::DataLoss("trailing bytes in read request");
  return r;
}

std::string EncodeReadReply(const WireReadReply& r) {
  std::string out;
  AppendU8(&out, r.holds ? 1 : 0);
  AppendU64(&out, r.snapshot_version);
  return out;
}

StatusOr<WireReadReply> DecodeReadReply(std::string_view payload) {
  PayloadReader reader(payload);
  WireReadReply r;
  KBT_ASSIGN_OR_RETURN(uint8_t holds, reader.GetU8());
  if (holds > 1) return Status::DataLoss("bad holds byte");
  r.holds = holds == 1;
  KBT_ASSIGN_OR_RETURN(r.snapshot_version, reader.GetU64());
  if (!reader.AtEnd()) return Status::DataLoss("trailing bytes in read reply");
  return r;
}

std::string EncodeApplyRequest(const WireApplyRequest& r) {
  std::string out;
  PutString(&out, r.expression);
  return out;
}

StatusOr<WireApplyRequest> DecodeApplyRequest(std::string_view payload) {
  PayloadReader reader(payload);
  WireApplyRequest r;
  KBT_ASSIGN_OR_RETURN(r.expression, reader.GetString());
  if (!reader.AtEnd()) return Status::DataLoss("trailing bytes in apply request");
  return r;
}

std::string EncodeApplyReply(const WireApplyReply& r) {
  std::string out;
  AppendU64(&out, r.version);
  return out;
}

StatusOr<WireApplyReply> DecodeApplyReply(std::string_view payload) {
  PayloadReader reader(payload);
  WireApplyReply r;
  KBT_ASSIGN_OR_RETURN(r.version, reader.GetU64());
  if (!reader.AtEnd()) return Status::DataLoss("trailing bytes in apply reply");
  return r;
}

std::string EncodeError(const WireError& e) {
  std::string out;
  AppendU8(&out, e.code);
  AppendU32(&out, e.retry_after_ms);
  PutString(&out, e.message);
  PutString(&out, e.redirect);
  return out;
}

StatusOr<WireError> DecodeError(std::string_view payload) {
  PayloadReader reader(payload);
  WireError e;
  KBT_ASSIGN_OR_RETURN(e.code, reader.GetU8());
  KBT_ASSIGN_OR_RETURN(e.retry_after_ms, reader.GetU32());
  KBT_ASSIGN_OR_RETURN(e.message, reader.GetString());
  KBT_ASSIGN_OR_RETURN(e.redirect, reader.GetString(4096));
  if (!reader.AtEnd()) return Status::DataLoss("trailing bytes in error frame");
  return e;
}

WireError ErrorFromStatus(const Status& status, uint32_t retry_after_ms) {
  WireError e;
  e.code = static_cast<uint8_t>(status.code());
  e.retry_after_ms = retry_after_ms;
  e.message = status.message();
  return e;
}

Status StatusFromError(const WireError& e) {
  StatusCode code = static_cast<StatusCode>(e.code);
  switch (code) {
    case StatusCode::kOk:
      // An error frame must carry an error; a peer sending kOk is corrupt.
      return Status::DataLoss("error frame with OK code");
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kResourceExhausted:
    case StatusCode::kNotFound:
    case StatusCode::kUnsupported:
    case StatusCode::kInternal:
    case StatusCode::kIOError:
    case StatusCode::kDataLoss:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
    case StatusCode::kReadOnly:
    case StatusCode::kFenced:
      // A replica's write rejection names the primary; keep the hint visible
      // to callers that only look at the message.
      if (!e.redirect.empty()) {
        return Status(code, e.message + " (redirect: " + e.redirect + ")");
      }
      return Status(code, e.message);
  }
  return Status::DataLoss("error frame with unknown code " +
                          std::to_string(e.code));
}

std::string EncodeStatsReply(const WireStatsReply& r) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(r.counters.size()));
  for (const auto& [name, value] : r.counters) {
    PutString(&out, name);
    AppendU64(&out, value);
  }
  return out;
}

StatusOr<WireStatsReply> DecodeStatsReply(std::string_view payload) {
  PayloadReader reader(payload);
  WireStatsReply r;
  KBT_ASSIGN_OR_RETURN(uint32_t n, reader.GetU32());
  if (n > 4096) return Status::DataLoss("stats counter count over cap");
  r.counters.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    KBT_ASSIGN_OR_RETURN(std::string name, reader.GetString(4096));
    KBT_ASSIGN_OR_RETURN(uint64_t value, reader.GetU64());
    r.counters.emplace_back(std::move(name), value);
  }
  if (!reader.AtEnd()) return Status::DataLoss("trailing bytes in stats reply");
  return r;
}

// ---------------------------------------------------------------------------
// Replication messages

std::string EncodeReplSubscribe(const WireReplSubscribe& r) {
  std::string out;
  PutString(&out, r.follower_id);
  AppendU64(&out, r.epoch);
  AppendU64(&out, r.start_lsn);
  AppendU8(&out, r.has_state);
  return out;
}

StatusOr<WireReplSubscribe> DecodeReplSubscribe(std::string_view payload) {
  PayloadReader reader(payload);
  WireReplSubscribe r;
  KBT_ASSIGN_OR_RETURN(r.follower_id, reader.GetString(4096));
  KBT_ASSIGN_OR_RETURN(r.epoch, reader.GetU64());
  KBT_ASSIGN_OR_RETURN(r.start_lsn, reader.GetU64());
  KBT_ASSIGN_OR_RETURN(r.has_state, reader.GetU8());
  if (r.has_state > 1) return Status::DataLoss("bad has_state byte");
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes in repl subscribe");
  }
  return r;
}

std::string EncodeReplSubscribeReply(const WireReplSubscribeReply& r) {
  std::string out;
  PutString(&out, r.primary_id);
  AppendU64(&out, r.epoch);
  AppendU64(&out, r.primary_lsn);
  AppendU64(&out, r.horizon_lsn);
  AppendU8(&out, r.need_snapshot);
  AppendU64(&out, r.snapshot_lsn);
  AppendU32(&out, static_cast<uint32_t>(r.epoch_history.size()));
  for (const auto& [epoch, start_lsn] : r.epoch_history) {
    AppendU64(&out, epoch);
    AppendU64(&out, start_lsn);
  }
  return out;
}

StatusOr<WireReplSubscribeReply> DecodeReplSubscribeReply(
    std::string_view payload) {
  PayloadReader reader(payload);
  WireReplSubscribeReply r;
  KBT_ASSIGN_OR_RETURN(r.primary_id, reader.GetString(4096));
  KBT_ASSIGN_OR_RETURN(r.epoch, reader.GetU64());
  KBT_ASSIGN_OR_RETURN(r.primary_lsn, reader.GetU64());
  KBT_ASSIGN_OR_RETURN(r.horizon_lsn, reader.GetU64());
  KBT_ASSIGN_OR_RETURN(r.need_snapshot, reader.GetU8());
  if (r.need_snapshot > 1) return Status::DataLoss("bad need_snapshot byte");
  KBT_ASSIGN_OR_RETURN(r.snapshot_lsn, reader.GetU64());
  KBT_ASSIGN_OR_RETURN(uint32_t n, reader.GetU32());
  if (n > kMaxEpochHistory) {
    return Status::DataLoss("epoch history over cap: " + std::to_string(n));
  }
  r.epoch_history.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    KBT_ASSIGN_OR_RETURN(uint64_t epoch, reader.GetU64());
    KBT_ASSIGN_OR_RETURN(uint64_t start_lsn, reader.GetU64());
    r.epoch_history.emplace_back(epoch, start_lsn);
  }
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes in repl subscribe reply");
  }
  return r;
}

std::string EncodeReplFetch(const WireReplFetch& r) {
  std::string out;
  PutString(&out, r.follower_id);
  AppendU64(&out, r.epoch);
  AppendU64(&out, r.after_lsn);
  AppendU32(&out, r.wait_ms);
  AppendU32(&out, r.max_records);
  AppendU32(&out, r.max_bytes);
  return out;
}

StatusOr<WireReplFetch> DecodeReplFetch(std::string_view payload) {
  PayloadReader reader(payload);
  WireReplFetch r;
  KBT_ASSIGN_OR_RETURN(r.follower_id, reader.GetString(4096));
  KBT_ASSIGN_OR_RETURN(r.epoch, reader.GetU64());
  KBT_ASSIGN_OR_RETURN(r.after_lsn, reader.GetU64());
  KBT_ASSIGN_OR_RETURN(r.wait_ms, reader.GetU32());
  KBT_ASSIGN_OR_RETURN(r.max_records, reader.GetU32());
  KBT_ASSIGN_OR_RETURN(r.max_bytes, reader.GetU32());
  if (!reader.AtEnd()) return Status::DataLoss("trailing bytes in repl fetch");
  return r;
}

std::string EncodeReplRecords(const WireReplRecords& r) {
  std::string out;
  AppendU64(&out, r.epoch);
  AppendU64(&out, r.start_lsn);
  AppendU64(&out, r.primary_lsn);
  AppendU32(&out, static_cast<uint32_t>(r.records.size()));
  for (const auto& [kind, payload] : r.records) {
    AppendU8(&out, kind);
    PutString(&out, payload);
  }
  return out;
}

StatusOr<WireReplRecords> DecodeReplRecords(std::string_view payload) {
  PayloadReader reader(payload);
  WireReplRecords r;
  KBT_ASSIGN_OR_RETURN(r.epoch, reader.GetU64());
  KBT_ASSIGN_OR_RETURN(r.start_lsn, reader.GetU64());
  KBT_ASSIGN_OR_RETURN(r.primary_lsn, reader.GetU64());
  KBT_ASSIGN_OR_RETURN(uint32_t n, reader.GetU32());
  if (n > kMaxReplBatch) {
    return Status::DataLoss("repl batch over cap: " + std::to_string(n));
  }
  r.records.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    KBT_ASSIGN_OR_RETURN(uint8_t kind, reader.GetU8());
    // Must be a store::WalRecordKind (kTransform/kInsert/kDelete).
    if (kind < 1 || kind > 3) {
      return Status::DataLoss("bad WAL record kind " + std::to_string(kind));
    }
    KBT_ASSIGN_OR_RETURN(std::string bytes, reader.GetString());
    r.records.emplace_back(kind, std::move(bytes));
  }
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes in repl records");
  }
  return r;
}

std::string EncodeReplCkptFetch(const WireReplCkptFetch& r) {
  std::string out;
  AppendU64(&out, r.lsn);
  AppendU64(&out, r.offset);
  AppendU32(&out, r.max_bytes);
  return out;
}

StatusOr<WireReplCkptFetch> DecodeReplCkptFetch(std::string_view payload) {
  PayloadReader reader(payload);
  WireReplCkptFetch r;
  KBT_ASSIGN_OR_RETURN(r.lsn, reader.GetU64());
  KBT_ASSIGN_OR_RETURN(r.offset, reader.GetU64());
  KBT_ASSIGN_OR_RETURN(r.max_bytes, reader.GetU32());
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes in ckpt fetch");
  }
  return r;
}

std::string EncodeReplCkptChunk(const WireReplCkptChunk& r) {
  std::string out;
  AppendU64(&out, r.lsn);
  AppendU64(&out, r.offset);
  AppendU64(&out, r.total_size);
  PutString(&out, r.bytes);
  return out;
}

StatusOr<WireReplCkptChunk> DecodeReplCkptChunk(std::string_view payload) {
  PayloadReader reader(payload);
  WireReplCkptChunk r;
  KBT_ASSIGN_OR_RETURN(r.lsn, reader.GetU64());
  KBT_ASSIGN_OR_RETURN(r.offset, reader.GetU64());
  KBT_ASSIGN_OR_RETURN(r.total_size, reader.GetU64());
  KBT_ASSIGN_OR_RETURN(r.bytes, reader.GetString());
  if (r.offset + r.bytes.size() > r.total_size) {
    return Status::DataLoss("ckpt chunk overruns its total size");
  }
  if (!reader.AtEnd()) {
    return Status::DataLoss("trailing bytes in ckpt chunk");
  }
  return r;
}

}  // namespace kbt::net
