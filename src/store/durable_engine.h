#ifndef KBT_STORE_DURABLE_ENGINE_H_
#define KBT_STORE_DURABLE_ENGINE_H_

/// \file
/// A knowledgebase engine whose state survives crashes.
///
/// DurableEngine wraps a core Engine and keeps the current knowledgebase in
/// memory. Every commit is one semantic WAL record, appended (and synced per
/// the configured durability mode) *before* the caller is told it succeeded.
/// Recovery on Open loads the newest valid checkpoint and replays the WAL's
/// valid prefix through ApplyWalRecord, the same function every commit
/// applies its record with, so the recovered state is bit-identical to what
/// was committed.
///
/// Commit protocol — one path for Apply, InsertTuples, DeleteTuples and
/// ApplyReplicated, each of which builds one WalRecord (Apply's holds the
/// expression verbatim):
///   1. a broken store refuses the record;
///   2. ApplyWalRecord applies it to the in-memory kb;
///   3. the record is appended; in kEveryCommit mode the file is fsynced
///      (kGroupCommit fsyncs every group_commit_interval commits, kManual only
///      on Sync()/Checkpoint());
///   4. only then do the in-memory kb and lsn advance.
/// A failed append or sync leaves the in-memory state unchanged and the
/// record unacknowledged; the writer self-heals by truncating the WAL
/// back to its last good byte and reopening, so a *transient* I/O error does
/// not poison the log for later commits. If the self-heal itself fails the
/// store is marked broken and every later commit is refused — reopening (a
/// fresh Open, which re-runs recovery) is the only way back.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/engine.h"
#include "rel/knowledgebase.h"
#include "store/file.h"
#include "store/wal.h"

namespace kbt::store {

/// When WAL appends become durable.
enum class SyncMode {
  /// fsync on every commit: an acknowledged commit survives any crash.
  kEveryCommit,
  /// fsync every group_commit_interval commits: bounded-loss group commit.
  kGroupCommit,
  /// fsync only on explicit Sync()/Checkpoint() calls.
  kManual,
};

struct StoreOptions {
  SyncMode sync_mode = SyncMode::kEveryCommit;
  /// Commits between fsyncs in kGroupCommit mode (≥ 1).
  size_t group_commit_interval = 8;
  /// Storage backend; nullptr means Env::Default() (the real filesystem).
  Env* env = nullptr;
};

class DurableEngine final {
 public:
  /// Opens (or creates) the store in `dir`. An empty directory is initialized
  /// with `initial` as checkpoint 0; an existing store recovers its committed
  /// state and `initial` is ignored.
  static StatusOr<std::unique_ptr<DurableEngine>> Open(
      const std::string& dir, const Knowledgebase& initial,
      StoreOptions store_options = StoreOptions(),
      EngineOptions engine_options = EngineOptions());

  ~DurableEngine();
  DurableEngine(const DurableEngine&) = delete;
  DurableEngine& operator=(const DurableEngine&) = delete;

  /// Applies a transformation expression to the current kb, committing it to
  /// the WAL verbatim. On success the durable and in-memory states advanced
  /// together; on error neither did (the expression is not acknowledged).
  StatusOr<Knowledgebase> Apply(std::string_view expression);

  /// Replication: commits a record shipped from a primary — the *primary's*
  /// record bytes, not a re-rendering — through the same path as every local
  /// commit; follower state is therefore bit-identical to the primary's at
  /// every lsn by construction.
  Status ApplyReplicated(const WalRecord& record);

  /// Replication: called after every successful commit with the new lsn and
  /// the record just made durable (under the caller's write serialization —
  /// commits are already single-threaded). A primary's feed hook.
  void SetCommitListener(
      std::function<void(uint64_t lsn, const WalRecord& record)> listener) {
    commit_listener_ = std::move(listener);
  }

  /// Replication: GC retention pin. When set, Checkpoint()'s garbage
  /// collection keeps every checkpoint/wal file needed to serve records after
  /// the returned lsn (the minimum acked lsn over subscribed followers):
  /// files at or above the pin's floor checkpoint survive. nullopt = no pin.
  void SetRetainLsnHook(std::function<std::optional<uint64_t>()> hook) {
    retain_lsn_hook_ = std::move(hook);
  }

  /// Commits an explicit tuple insertion (bulk load) into `relation`.
  Status InsertTuples(std::string_view relation,
                      const std::vector<std::vector<std::string>>& rows);
  /// Commits an explicit tuple deletion from `relation`.
  Status DeleteTuples(std::string_view relation,
                      const std::vector<std::vector<std::string>>& rows);

  /// Forces everything committed so far to durable storage (a group-commit /
  /// manual-mode barrier; a no-op after kEveryCommit commits).
  Status Sync();

  /// Writes a checkpoint of the current state, starts a fresh WAL, and
  /// garbage-collects superseded checkpoint/wal files.
  Status Checkpoint();

  /// The current committed knowledgebase.
  const Knowledgebase& kb() const { return kb_; }
  /// Committed records since the store was created.
  uint64_t lsn() const { return lsn_; }
  /// lsn of the checkpoint the current WAL hangs off.
  uint64_t checkpoint_lsn() const { return checkpoint_lsn_; }
  /// The store directory (for replication's log/checkpoint file reads).
  const std::string& dir() const { return dir_; }
  /// The storage backend (never nullptr).
  Env* env() const { return env_; }
  /// True once a failed self-heal left the log unusable (see file comment).
  bool broken() const { return broken_; }

 private:
  DurableEngine(std::string dir, StoreOptions store_options,
                EngineOptions engine_options);

  /// The one commit path: refuses when broken, applies `record` to kb_ with
  /// ApplyWalRecord, appends it and applies the sync policy, and on success
  /// adopts the result as the committed state.
  Status Commit(const WalRecord& record);
  /// kIOError when a failed self-heal broke the store, else OK.
  Status RefuseWhenBroken() const;
  /// After a failed append/sync: truncate the WAL to last_good_wal_bytes_ and
  /// reopen it, or mark the store broken.
  void SelfHeal();
  /// Opens wal-<checkpoint_lsn_> for append, writing the header if fresh.
  Status OpenWal(uint64_t existing_bytes);

  const std::string dir_;
  const StoreOptions store_options_;
  Env* const env_;
  Engine engine_;

  Knowledgebase kb_;
  uint64_t lsn_ = 0;
  uint64_t checkpoint_lsn_ = 0;
  std::unique_ptr<WalWriter> wal_;
  /// Bytes of wal-<checkpoint_lsn_> known to hold whole records (the truncate
  /// target for self-healing).
  uint64_t last_good_wal_bytes_ = 0;
  size_t unsynced_commits_ = 0;
  bool broken_ = false;
  std::function<void(uint64_t, const WalRecord&)> commit_listener_;
  std::function<std::optional<uint64_t>()> retain_lsn_hook_;
};

}  // namespace kbt::store

#endif  // KBT_STORE_DURABLE_ENGINE_H_
