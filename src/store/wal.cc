#include "store/wal.h"

#include <algorithm>
#include <cstring>

#include "base/little_endian.h"
#include "store/crc32.h"

namespace kbt::store {

namespace {

bool ValidKind(uint8_t kind) {
  return kind >= static_cast<uint8_t>(WalRecordKind::kTransform) &&
         kind <= static_cast<uint8_t>(WalRecordKind::kDelete);
}

std::string EncodeRecord(const WalRecord& record) {
  std::string body;
  body.push_back(static_cast<char>(record.kind));
  body += record.payload;
  std::string out;
  AppendU32(&out, Crc32c(body));
  AppendU32(&out, static_cast<uint32_t>(record.payload.size()));
  out += body;
  return out;
}

/// Bounds-checked cursor over a delta payload.
class DeltaReader {
 public:
  explicit DeltaReader(std::string_view bytes) : bytes_(bytes) {}

  StatusOr<uint32_t> ReadU32(const char* what) {
    if (bytes_.size() - pos_ < 4) return Truncated(what);
    uint32_t v = LoadU32(bytes_.data() + pos_);
    pos_ += 4;
    return v;
  }

  StatusOr<std::string_view> ReadBytes(size_t n, const char* what) {
    if (bytes_.size() - pos_ < n) return Truncated(what);
    std::string_view v = bytes_.substr(pos_, n);
    pos_ += n;
    return v;
  }

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  Status Truncated(const char* what) {
    return Status::DataLoss(std::string("truncated tuple delta reading ") +
                            what);
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace

std::string EncodeTupleDelta(
    std::string_view relation, size_t arity,
    const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(relation.size()));
  out += relation;
  AppendU32(&out, static_cast<uint32_t>(arity));
  // A zero-ary relation holds at most the empty tuple, so duplicate empty rows
  // carry no information; canonicalize them away so the decoder can enforce
  // the matching rows <= 1 bound (binary_io's ReadRelation rule).
  const size_t row_count =
      arity == 0 ? std::min<size_t>(rows.size(), 1) : rows.size();
  AppendU32(&out, static_cast<uint32_t>(row_count));
  for (const auto& row : rows) {
    for (const auto& value : row) {
      AppendU32(&out, static_cast<uint32_t>(value.size()));
      out += value;
    }
  }
  return out;
}

StatusOr<TupleDelta> DecodeTupleDelta(std::string_view payload) {
  DeltaReader reader(payload);
  TupleDelta delta;
  KBT_ASSIGN_OR_RETURN(uint32_t name_len, reader.ReadU32("relation name size"));
  if (name_len > reader.remaining()) {
    return Status::DataLoss("truncated tuple delta reading relation name");
  }
  KBT_ASSIGN_OR_RETURN(std::string_view name,
                       reader.ReadBytes(name_len, "relation name"));
  delta.relation = std::string(name);
  KBT_ASSIGN_OR_RETURN(uint32_t arity, reader.ReadU32("arity"));
  if (arity > 1'000'000) return Status::DataLoss("tuple delta arity too large");
  delta.arity = arity;
  KBT_ASSIGN_OR_RETURN(uint32_t rows, reader.ReadU32("row count"));
  // Each value costs at least 4 length bytes, so bound rows before reserving.
  // A zero-ary relation holds at most the empty tuple (binary_io's rule), so
  // its row count needs its own bound — no per-value bytes back it.
  if (arity == 0 && rows > 1) {
    return Status::DataLoss("tuple delta row count exceeds payload size");
  }
  if (arity > 0 && static_cast<uint64_t>(rows) * arity > reader.remaining() / 4) {
    return Status::DataLoss("tuple delta row count exceeds payload size");
  }
  delta.rows.reserve(rows);
  for (uint32_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    row.reserve(arity);
    for (uint32_t c = 0; c < arity; ++c) {
      KBT_ASSIGN_OR_RETURN(uint32_t len, reader.ReadU32("value size"));
      if (len > reader.remaining()) {
        return Status::DataLoss("truncated tuple delta reading value");
      }
      KBT_ASSIGN_OR_RETURN(std::string_view value,
                           reader.ReadBytes(len, "value"));
      row.emplace_back(value);
    }
    delta.rows.push_back(std::move(row));
  }
  if (reader.remaining() != 0) {
    return Status::DataLoss("trailing bytes after tuple delta");
  }
  return delta;
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Create(
    std::unique_ptr<File> file, uint64_t file_size, uint64_t start_lsn) {
  auto writer = std::unique_ptr<WalWriter>(new WalWriter(std::move(file)));
  if (file_size == 0) {
    std::string header(kWalMagic, sizeof(kWalMagic));
    AppendU16(&header, kWalVersion);
    AppendU64(&header, start_lsn);
    KBT_RETURN_IF_ERROR(writer->file_->Append(header));
  }
  return writer;
}

Status WalWriter::Append(const WalRecord& record) {
  return file_->Append(EncodeRecord(record));
}

Status WalWriter::Sync() { return file_->Sync(); }

Status WalWriter::Close() { return file_->Close(); }

StatusOr<WalContents> ReadWal(std::string_view bytes) {
  if (bytes.size() < kWalHeaderSize) {
    return Status::DataLoss("wal file shorter than its header");
  }
  if (std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::DataLoss("wal file has wrong magic");
  }
  uint16_t version = LoadU16(bytes.data() + sizeof(kWalMagic));
  if (version != kWalVersion) {
    return Status::DataLoss("unsupported wal version " +
                            std::to_string(version));
  }
  WalContents contents;
  contents.start_lsn = LoadU64(bytes.data() + sizeof(kWalMagic) + 2);

  size_t pos = kWalHeaderSize;
  while (true) {
    // Anything that fails from here down is a torn or corrupt tail: stop and
    // report the valid prefix rather than erroring out.
    if (bytes.size() - pos < kWalRecordHeadSize) break;
    uint32_t crc = LoadU32(bytes.data() + pos);
    uint32_t payload_len = LoadU32(bytes.data() + pos + 4);
    uint8_t kind = static_cast<uint8_t>(bytes[pos + 8]);
    if (payload_len > bytes.size() - pos - kWalRecordHeadSize) break;
    std::string_view body = bytes.substr(pos + 8, 1 + payload_len);
    if (Crc32c(body) != crc || !ValidKind(kind)) break;
    WalRecord record;
    record.kind = static_cast<WalRecordKind>(kind);
    record.payload = std::string(body.substr(1));
    contents.records.push_back(std::move(record));
    pos += kWalRecordHeadSize + payload_len;
  }
  contents.valid_bytes = pos;
  return contents;
}

}  // namespace kbt::store
