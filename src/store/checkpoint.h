#ifndef KBT_STORE_CHECKPOINT_H_
#define KBT_STORE_CHECKPOINT_H_

/// \file
/// Binary checkpoint files: a durable snapshot of a whole knowledgebase at a
/// known log position, so recovery replays a WAL suffix instead of the full
/// history.
///
/// File layout:
///
///   magic "KBTCKPT" (7 bytes), u8 version, u64 lsn,
///   u32 crc32c(payload), u32 payload_len, payload
///
/// (integers little-endian). The payload (version 3) mirrors the in-memory
/// delta-structured representation (rel/overlay.h) — the shared base database
/// is written once and each world as its sparse overlay — and holds every
/// relation as a length-prefixed block (u32 len, block) in the WAL's
/// EncodeTupleDelta shape (store/wal.h):
///
///   u32 world_count,
///   u32 decl_count, then decl_count blocks: the base relation at each
///              schema position, in schema order (each block declares its
///              relation's name and arity),
///   per world: u32 delta_count, per delta two blocks, adds then dels
///
/// so checkpoint size is O(base + Σ deltas) instead of O(worlds × database).
/// Decoding reads each block straight into a relation at its schema position
/// (ParseTupleDelta, store/wal.h), interning each distinct name of the
/// payload once, and validates every overlay's canonical invariants against
/// the base (WorldOverlay::Validate) before accepting the file. Files of
/// versions 1 (a flat member list) and 2 (the base in a dictionary format)
/// are refused as kDataLoss "unsupported checkpoint version N". Unlike the
/// WAL, a checkpoint is all-or-nothing: any truncation or corruption makes
/// the file invalid (recovery falls back to an older checkpoint).
///
/// WriteCheckpoint is atomic under crashes: the bytes go to a temporary name,
/// are synced, then renamed into place and the directory synced — a crash at
/// any point leaves either the old state or the complete new file, never a
/// half-written checkpoint under the real name.

#include <cstdint>
#include <string>

#include "base/status.h"
#include "rel/knowledgebase.h"
#include "store/file.h"
#include "store/wal.h"

namespace kbt::store {

inline constexpr char kCheckpointMagic[7] = {'K', 'B', 'T', 'C', 'K', 'P', 'T'};
/// The one version EncodeCheckpoint writes and DecodeCheckpoint accepts.
inline constexpr uint8_t kCheckpointVersion = 3;

/// The checkpoint file image for `kb` at log position `lsn`.
std::string EncodeCheckpoint(const Knowledgebase& kb, uint64_t lsn);

struct CheckpointContents {
  uint64_t lsn = 0;
  Knowledgebase kb{Schema()};
};

/// Parses a checkpoint file image. Any defect — bad magic, bad version, bad
/// CRC, truncation, trailing bytes, malformed payload — is kDataLoss.
StatusOr<CheckpointContents> DecodeCheckpoint(std::string_view bytes);

/// Durably writes `kb` as `path` via tmp-file + sync + rename + dir sync.
/// `dir` must be the directory containing `path`.
Status WriteCheckpoint(Env* env, const std::string& dir,
                       const std::string& path, const Knowledgebase& kb,
                       uint64_t lsn);

/// Reads and decodes the checkpoint at `path`.
StatusOr<CheckpointContents> ReadCheckpoint(Env* env, const std::string& path);

}  // namespace kbt::store

#endif  // KBT_STORE_CHECKPOINT_H_
