#include "repl/meta.h"

#include <cstring>

#include "base/little_endian.h"
#include "store/crc32.h"

namespace kbt::repl {

namespace {

bool GetU32(std::string_view data, size_t* pos, uint32_t* v) {
  if (data.size() - *pos < 4) return false;
  *v = LoadU32(data.data() + *pos);
  *pos += 4;
  return true;
}

bool GetU64(std::string_view data, size_t* pos, uint64_t* v) {
  if (data.size() - *pos < 8) return false;
  *v = LoadU64(data.data() + *pos);
  *pos += 8;
  return true;
}

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
  const size_t header = sizeof(kReplMetaMagic) + 1 + 4 + 4;
  if (bytes.size() < header) return Corrupt("truncated header");
  if (std::memcmp(bytes.data(), kReplMetaMagic, sizeof(kReplMetaMagic)) != 0) {
    return Corrupt("bad magic");
  }
  size_t pos = sizeof(kReplMetaMagic);
  const uint8_t version = static_cast<uint8_t>(bytes[pos++]);
  if (version != kReplMetaVersion) {
    return Corrupt("unknown version " + std::to_string(version));
  }
  uint32_t crc = 0;
  uint32_t payload_len = 0;
  if (!GetU32(bytes, &pos, &crc) || !GetU32(bytes, &pos, &payload_len)) {
    return Corrupt("truncated header");
  }
  if (bytes.size() - pos != payload_len) {
    return Corrupt("payload length mismatch");
  }
  std::string_view payload = bytes.substr(pos);
  if (store::Crc32c(payload) != crc) return Corrupt("payload CRC mismatch");

  size_t ppos = 0;
  uint32_t count = 0;
  if (!GetU32(payload, &ppos, &count)) return Corrupt("truncated payload");
  if (static_cast<uint64_t>(count) * 16 != payload.size() - ppos) {
    return Corrupt("entry count mismatch");
  }
  ReplMeta meta;
  meta.history.reserve(count);
  uint64_t prev_epoch = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t epoch = 0;
    uint64_t start_lsn = 0;
    if (!GetU64(payload, &ppos, &epoch) || !GetU64(payload, &ppos, &start_lsn)) {
      return Corrupt("truncated entry");
    }
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
