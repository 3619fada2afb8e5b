#include "store/checkpoint.h"

#include <cstring>
#include <vector>

#include "base/interner.h"
#include "base/little_endian.h"
#include "rel/binary_io.h"
#include "rel/overlay.h"
#include "store/crc32.h"

namespace kbt::store {

namespace {

constexpr size_t kHeaderSize = 7 + 1 + 8 + 4 + 4;

/// One relation's tuples as rows of constant names, the shape EncodeTupleDelta
/// consumes.
std::vector<std::vector<std::string>> RelationRows(const Relation& rel) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(rel.size());
  if (rel.arity() == 0) {
    rows.resize(rel.size());
  } else {
    for (TupleView t : rel) {
      std::vector<std::string> row;
      row.reserve(rel.arity());
      for (size_t i = 0; i < rel.arity(); ++i) row.push_back(NameOf(t[i]));
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

/// Appends a length-prefixed EncodeTupleDelta block for `rel` to `out`.
void AppendDeltaBlock(std::string& out, std::string_view name,
                      const Relation& rel) {
  std::string block = EncodeTupleDelta(name, rel.arity(), RelationRows(rel));
  AppendU32(&out, static_cast<uint32_t>(block.size()));
  out += block;
}

/// Bounds-checked cursor over the payload.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view bytes) : bytes_(bytes) {}

  StatusOr<uint32_t> ReadU32(const char* what) {
    if (bytes_.size() - pos_ < 4) return Truncated(what);
    uint32_t v = LoadU32(bytes_.data() + pos_);
    pos_ += 4;
    return v;
  }

  StatusOr<std::string_view> ReadBlock(const char* what) {
    KBT_ASSIGN_OR_RETURN(uint32_t len, ReadU32(what));
    if (bytes_.size() - pos_ < len) return Truncated(what);
    std::string_view v = bytes_.substr(pos_, len);
    pos_ += len;
    return v;
  }

  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  Status Truncated(const char* what) {
    return Status::DataLoss(std::string("truncated checkpoint reading ") +
                            what);
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

/// Reads one adds/dels block straight into a relation of `schema`.
StatusOr<DecodedDelta> ReadDeltaBlock(PayloadReader& reader,
                                      const Schema& schema,
                                      PayloadNames* names, const char* what) {
  KBT_ASSIGN_OR_RETURN(std::string_view block, reader.ReadBlock(what));
  return ParseTupleDelta(block, schema, names);
}

/// Parses the payload: base database once, then per-world overlays.
StatusOr<Knowledgebase> DecodeOverlayPayload(std::string_view payload) {
  PayloadReader reader(payload);
  KBT_ASSIGN_OR_RETURN(uint32_t world_count, reader.ReadU32("world count"));
  KBT_ASSIGN_OR_RETURN(std::string_view base_bytes,
                       reader.ReadBlock("base database"));
  KBT_ASSIGN_OR_RETURN(Database base, ParseBinaryDatabase(base_bytes));
  // Each world costs at least its 4-byte delta count; bound before reserving.
  if (world_count > reader.remaining() / 4 + 1) {
    return Status::DataLoss("checkpoint world count exceeds payload size");
  }
  auto shared_base = std::make_shared<const Database>(std::move(base));
  const Schema& schema = shared_base->schema();
  PayloadNames names;  // Views into `payload`, which outlives the decode.
  std::vector<WorldOverlay> overlays;
  overlays.reserve(world_count);
  for (uint32_t w = 0; w < world_count; ++w) {
    KBT_ASSIGN_OR_RETURN(uint32_t delta_count, reader.ReadU32("delta count"));
    // Each delta costs at least two 4-byte block lengths.
    if (delta_count > reader.remaining() / 8 + 1) {
      return Status::DataLoss("checkpoint delta count exceeds payload size");
    }
    std::vector<RelationDelta> deltas;
    deltas.reserve(delta_count);
    for (uint32_t i = 0; i < delta_count; ++i) {
      KBT_ASSIGN_OR_RETURN(
          DecodedDelta adds,
          ReadDeltaBlock(reader, schema, &names, "overlay adds"));
      KBT_ASSIGN_OR_RETURN(
          DecodedDelta dels,
          ReadDeltaBlock(reader, schema, &names, "overlay dels"));
      if (adds.pos != dels.pos) {
        return Status::DataLoss(
            "checkpoint overlay adds/dels name different relations");
      }
      deltas.push_back(RelationDelta{static_cast<uint32_t>(adds.pos),
                                     std::move(adds.rows),
                                     std::move(dels.rows)});
    }
    WorldOverlay overlay = WorldOverlay::FromDeltas(std::move(deltas));
    // Reject any payload whose overlay is not canonical relative to the base
    // (overlapping adds, dels outside the base, duplicate positions, ...):
    // such a file was not produced by EncodeCheckpoint.
    KBT_RETURN_IF_ERROR(overlay.Validate(*shared_base));
    overlays.push_back(std::move(overlay));
  }
  if (reader.remaining() != 0) {
    return Status::DataLoss("trailing bytes after checkpoint payload");
  }
  if (world_count == 0) return Knowledgebase(shared_base->schema());
  return Knowledgebase::FromBaseAndOverlays(std::move(shared_base),
                                            std::move(overlays));
}

}  // namespace

std::string EncodeCheckpoint(const Knowledgebase& kb, uint64_t lsn) {
  // The shared base once, each world as its sparse overlay.
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(kb.size()));
  const Database empty_base(kb.schema());
  const Database& base = kb.base() != nullptr ? *kb.base() : empty_base;
  std::string base_bytes = SerializeDatabase(base);
  AppendU32(&payload, static_cast<uint32_t>(base_bytes.size()));
  payload += base_bytes;
  for (const WorldOverlay& overlay : kb.overlays()) {
    AppendU32(&payload, static_cast<uint32_t>(overlay.deltas().size()));
    for (const RelationDelta& d : overlay.deltas()) {
      const std::string name = NameOf(kb.schema().decl(d.pos).symbol);
      AppendDeltaBlock(payload, name, d.adds);
      AppendDeltaBlock(payload, name, d.dels);
    }
  }
  std::string out(kCheckpointMagic, sizeof(kCheckpointMagic));
  out.push_back(static_cast<char>(kCheckpointVersion));
  AppendU64(&out, lsn);
  AppendU32(&out, Crc32c(payload));
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  out += payload;
  return out;
}

StatusOr<CheckpointContents> DecodeCheckpoint(std::string_view bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status::DataLoss("checkpoint shorter than its header");
  }
  if (std::memcmp(bytes.data(), kCheckpointMagic,
                  sizeof(kCheckpointMagic)) != 0) {
    return Status::DataLoss("checkpoint has wrong magic");
  }
  uint8_t version = static_cast<uint8_t>(bytes[7]);
  if (version != kCheckpointVersion) {
    return Status::DataLoss("unsupported checkpoint version " +
                            std::to_string(version));
  }
  uint64_t lsn = LoadU64(bytes.data() + 8);
  uint32_t crc = LoadU32(bytes.data() + 16);
  uint32_t payload_len = LoadU32(bytes.data() + 20);
  std::string_view payload = bytes.substr(kHeaderSize);
  if (payload.size() != payload_len) {
    return Status::DataLoss("checkpoint payload size mismatch");
  }
  if (Crc32c(payload) != crc) {
    return Status::DataLoss("checkpoint payload fails crc check");
  }
  CheckpointContents contents;
  contents.lsn = lsn;
  KBT_ASSIGN_OR_RETURN(contents.kb, DecodeOverlayPayload(payload));
  return contents;
}

Status WriteCheckpoint(Env* env, const std::string& dir,
                       const std::string& path, const Knowledgebase& kb,
                       uint64_t lsn) {
  const std::string tmp = path + ".tmp";
  {
    KBT_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                         env->NewTruncatedFile(tmp));
    KBT_RETURN_IF_ERROR(file->Append(EncodeCheckpoint(kb, lsn)));
    KBT_RETURN_IF_ERROR(file->Sync());
    KBT_RETURN_IF_ERROR(file->Close());
  }
  KBT_RETURN_IF_ERROR(env->RenameFile(tmp, path));
  return env->SyncDir(dir);
}

StatusOr<CheckpointContents> ReadCheckpoint(Env* env, const std::string& path) {
  KBT_ASSIGN_OR_RETURN(std::string bytes, env->ReadFile(path));
  return DecodeCheckpoint(bytes);
}

}  // namespace kbt::store
