#include "repl/meta.h"

#include <cstring>

#include "base/little_endian.h"
#include "store/crc32.h"

namespace kbt::repl {

namespace {

Status Corrupt(const std::string& what) {
  return Status::DataLoss("replmeta: " + what);
}

}  // namespace

std::string EncodeReplMeta(const ReplMeta& meta) {
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(meta.history.size()));
  for (const auto& [epoch, start_lsn] : meta.history) {
    AppendU64(&payload, epoch);
    AppendU64(&payload, start_lsn);
  }
  std::string out;
  out.append(kReplMetaMagic, sizeof(kReplMetaMagic));
  AppendU8(&out, kReplMetaVersion);
  AppendU32(&out, store::Crc32c(payload));
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

StatusOr<ReplMeta> DecodeReplMeta(std::string_view bytes) {
  if (bytes.size() < sizeof(kReplMetaMagic) ||
      std::memcmp(bytes.data(), kReplMetaMagic, sizeof(kReplMetaMagic)) != 0) {
    return Corrupt("bad magic");
  }
  ByteReader reader(bytes.substr(sizeof(kReplMetaMagic)), "replmeta");
  KBT_ASSIGN_OR_RETURN(uint8_t version, reader.ReadU8("version"));
  if (version != kReplMetaVersion) {
    return Corrupt("unknown version " + std::to_string(version));
  }
  KBT_ASSIGN_OR_RETURN(uint32_t crc, reader.ReadU32("crc"));
  KBT_ASSIGN_OR_RETURN(uint32_t payload_len, reader.ReadU32("payload length"));
  if (reader.remaining() != payload_len) {
    return Corrupt("payload length mismatch");
  }
  if (store::Crc32c(bytes.substr(bytes.size() - payload_len)) != crc) {
    return Corrupt("payload CRC mismatch");
  }
  KBT_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32("entry count"));
  if (static_cast<uint64_t>(count) * 16 != reader.remaining()) {
    return Corrupt("entry count mismatch");
  }
  ReplMeta meta;
  meta.history.reserve(count);
  uint64_t prev_epoch = 0;
  for (uint32_t i = 0; i < count; ++i) {
    KBT_ASSIGN_OR_RETURN(uint64_t epoch, reader.ReadU64("epoch"));
    KBT_ASSIGN_OR_RETURN(uint64_t start_lsn, reader.ReadU64("start lsn"));
    if (i > 0 && epoch <= prev_epoch) {
      return Corrupt("epochs not strictly increasing");
    }
    prev_epoch = epoch;
    meta.history.emplace_back(epoch, start_lsn);
  }
  return meta;
}

Status WriteReplMeta(store::Env* env, const std::string& dir,
                     const ReplMeta& meta) {
  const std::string path = dir + "/" + kReplMetaFileName;
  const std::string tmp = path + ".tmp";
  KBT_ASSIGN_OR_RETURN(std::unique_ptr<store::File> file,
                       env->NewTruncatedFile(tmp));
  KBT_RETURN_IF_ERROR(file->Append(EncodeReplMeta(meta)));
  KBT_RETURN_IF_ERROR(file->Sync());
  KBT_RETURN_IF_ERROR(file->Close());
  KBT_RETURN_IF_ERROR(env->RenameFile(tmp, path));
  return env->SyncDir(dir);
}

StatusOr<ReplMeta> ReadReplMeta(store::Env* env, const std::string& dir) {
  const std::string path = dir + "/" + kReplMetaFileName;
  if (!env->FileExists(path)) {
    return Status::NotFound("no replmeta in " + dir);
  }
  KBT_ASSIGN_OR_RETURN(std::string bytes, env->ReadFile(path));
  return DecodeReplMeta(bytes);
}

}  // namespace kbt::repl
