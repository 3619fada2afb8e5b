#include "store/wal.h"

#include <algorithm>
#include <cstring>
#include <optional>

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

Symbol PayloadNames::Intern(std::string_view name) {
  auto [it, fresh] = symbols_.try_emplace(name, 0);
  if (fresh) it->second = Name(name);
  return it->second;
}

StatusOr<DecodedDelta> ParseTupleDelta(std::string_view payload,
                                       const Schema& schema,
                                       PayloadNames* names) {
  size_t at = 0;
  auto truncated = [](const char* what) {
    return Status::DataLoss(std::string("truncated tuple delta reading ") +
                            what);
  };
  // The next u32, or false when fewer than 4 bytes remain.
  auto read_u32 = [&](uint32_t* v) {
    if (payload.size() - at < 4) return false;
    *v = LoadU32(payload.data() + at);
    at += 4;
    return true;
  };
  // The next `len` bytes, or false when fewer remain.
  auto read_bytes = [&](uint32_t len, std::string_view* v) {
    if (payload.size() - at < len) return false;
    *v = payload.substr(at, len);
    at += len;
    return true;
  };
  uint32_t name_len = 0, arity = 0, rows = 0;
  std::string_view name;
  if (!read_u32(&name_len)) return truncated("relation name size");
  if (!read_bytes(name_len, &name)) return truncated("relation name");
  if (!read_u32(&arity)) return truncated("arity");
  if (arity > 1'000'000) return Status::DataLoss("tuple delta arity too large");
  if (!read_u32(&rows)) return truncated("row count");
  // Each value costs at least 4 length bytes, so bound rows before reserving.
  // A zero-ary relation holds at most the empty tuple (binary_io's rule), so
  // its row count needs its own bound — no per-value bytes back it.
  if (arity == 0 && rows > 1) {
    return Status::DataLoss("tuple delta row count exceeds payload size");
  }
  if (arity > 0 &&
      static_cast<uint64_t>(rows) * arity > (payload.size() - at) / 4) {
    return Status::DataLoss("tuple delta row count exceeds payload size");
  }
  const std::optional<size_t> pos = schema.PositionOf(names->Intern(name));
  if (!pos.has_value()) {
    return Status::DataLoss("tuple delta names undeclared relation " +
                            std::string(name));
  }
  if (schema.decl(*pos).arity != arity) {
    return Status::DataLoss("tuple delta arity mismatch for " +
                            std::string(name));
  }
  Relation::Builder builder(arity);
  if (arity == 0) {
    // A present zero-ary row is the single empty tuple.
    if (rows == 1) builder.Append(TupleView());
  } else {
    builder.Reserve(rows);
    for (uint32_t r = 0; r < rows; ++r) {
      Value* row = builder.AppendRow();
      for (uint32_t c = 0; c < arity; ++c) {
        uint32_t len = 0;
        std::string_view value;
        if (!read_u32(&len)) return truncated("value size");
        if (!read_bytes(len, &value)) return truncated("value");
        row[c] = names->Intern(value);
      }
    }
  }
  if (at != payload.size()) {
    return Status::DataLoss("trailing bytes after tuple delta");
  }
  return DecodedDelta{*pos, builder.Build()};
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
