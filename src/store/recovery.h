#ifndef KBT_STORE_RECOVERY_H_
#define KBT_STORE_RECOVERY_H_

/// \file
/// Crash recovery: rebuild the knowledgebase a durable store last committed.
///
/// A store directory holds `checkpoint-<lsn>` snapshots and `wal-<lsn>` logs,
/// where `wal-C` carries the records committed *after* the checkpoint at lsn C
/// (the lsn is the count of committed records since the store was created).
/// Recovery:
///
///   1. scan the directory, try checkpoints from the highest lsn down, and
///      take the first one that decodes cleanly (older ones are the fallback
///      when a crash corrupted the newest);
///   2. read `wal-C` for the chosen checkpoint, accept its valid prefix
///      (ReadWal stops at a torn or corrupt tail), and replay each record
///      through the engine — μ/τ are deterministic, so replay reproduces the
///      committed state bit for bit;
///   3. report the valid byte count so the caller can truncate the torn tail
///      before appending new records.
///
/// A missing `wal-C` is normal (a crash between writing a checkpoint and
/// starting its log); recovery then lands exactly on the checkpoint.

#include <cstdint>
#include <optional>
#include <string>

#include "base/status.h"
#include "core/engine.h"
#include "rel/knowledgebase.h"
#include "store/file.h"
#include "store/wal.h"

namespace kbt::store {

/// File name of the checkpoint at `lsn` ("checkpoint-<lsn>").
std::string CheckpointFileName(uint64_t lsn);
/// File name of the log holding records after lsn `lsn` ("wal-<lsn>").
std::string WalFileName(uint64_t lsn);
/// Extracts the lsn of a "<prefix>-<decimal>" store file name; nullopt for
/// anything else (used by recovery's directory scan and checkpoint GC).
std::optional<uint64_t> ParseStoreLsnSuffix(std::string_view name,
                                            std::string_view prefix);

/// Applies one WAL record to `kb`: kTransform applies the expression through
/// `engine`, kInsert/kDelete fold the tuple delta into the shared base and
/// repair each world's overlay in place (O(worlds × delta), not × database).
/// DurableEngine commits every record through it and recovery replays every
/// record through it, so a replayed state is the committed one bit for bit.
StatusOr<Knowledgebase> ApplyWalRecord(Engine& engine, const WalRecord& record,
                                       const Knowledgebase& kb);

struct RecoveredStore {
  Knowledgebase kb;
  /// lsn of the checkpoint recovery started from.
  uint64_t checkpoint_lsn = 0;
  /// checkpoint_lsn + replayed records: the next record's lsn.
  uint64_t lsn = 0;
  /// True when `wal-<checkpoint_lsn>` existed.
  bool wal_exists = false;
  /// Size of that wal file as read.
  uint64_t wal_file_size = 0;
  /// Bytes of its valid prefix; less than wal_file_size means a torn tail
  /// that must be truncated before appending.
  uint64_t wal_valid_bytes = 0;
};

/// Recovers the store in `dir`. kNotFound when the directory holds no
/// checkpoint at all (a fresh store); kDataLoss when checkpoints exist but
/// none decodes, or replay of a committed record fails.
StatusOr<RecoveredStore> RecoverStore(Env* env, const std::string& dir,
                                      Engine& engine);

}  // namespace kbt::store

#endif  // KBT_STORE_RECOVERY_H_
