#ifndef KBT_REPL_PRIMARY_H_
#define KBT_REPL_PRIMARY_H_

/// \file
/// The primary side of WAL-shipping replication.
///
/// A Primary attaches to a durable serve::Server and implements
/// net::ReplHandler: followers subscribe, then long-poll record batches whose
/// `after_lsn` doubles as their durable ack. Records come from an in-memory
/// feed of recent commits (filled by the store's commit listener) with a
/// disk fallback that reads the store's own wal-<C> files — a follower that
/// fell behind the feed is caught up from the log, and one that fell behind
/// the GC horizon is re-seeded from a checkpoint (chunked transfer).
///
/// Epoch fencing — both directions, so divergence is structurally impossible:
///   * A subscriber announcing an epoch *newer* than ours proves a promotion
///     happened elsewhere: this primary is deposed. It fences itself (the
///     serve::Server flips read-only) and refuses with kFenced — a deposed
///     primary never ships another record or takes another client write.
///   * A subscriber announcing an *older* epoch is checked against the
///     persisted epoch history (repl/meta.h): its log is either a prefix of
///     this lineage (safe: ship records) or contains records a deposed
///     primary committed past the fork (unsafe: re-seed from checkpoint).
///
/// Semi-sync: with PrimaryOptions.semi_sync the serve::Server's commit waiter
/// is installed; every Apply blocks — after its commit is locally durable and
/// published, outside the writer lock — until some follower acks the lsn or
/// the timeout fires. The timeout error means "durable here, on no replica
/// yet", never a rollback.
///
/// GC retention: the store's retain-lsn hook reports the minimum acked lsn
/// over subscribers, so Checkpoint() keeps every file a live follower still
/// needs (store/durable_engine.cc).
///
/// Thread-safety: handlers run on net worker threads; the commit listener and
/// retain hook run under the serve writer lock. One internal mutex guards all
/// replication state (lock order: writer lock → repl mutex, never reversed —
/// nothing here calls back into Apply).

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "base/cancel.h"
#include "base/status.h"
#include "net/frame.h"
#include "net/repl_handler.h"
#include "repl/meta.h"
#include "serve/server.h"
#include "store/wal.h"

#include <condition_variable>

namespace kbt::repl {

struct PrimaryOptions {
  /// Advertised in subscribe replies (diagnostics only).
  std::string node_id = "primary";
  /// Install the semi-sync commit waiter on the serve::Server.
  bool semi_sync = false;
  /// Semi-sync: how long a commit waits for a follower ack before returning
  /// the typed kDeadlineExceeded ("durable locally, unreplicated") error.
  uint64_t semi_sync_timeout_ms = 5'000;
  /// Recent commits kept in the in-memory feed; older fetches fall back to
  /// reading the store's wal files.
  size_t feed_capacity = 1024;
};

class Primary : public net::ReplHandler {
 public:
  /// Attaches to `server` (borrowed; must outlive this; must be durable —
  /// kUnsupported otherwise). Loads the store's epoch history, creating one
  /// (epoch 1 starting at the current lsn) for a store never replicated
  /// before, and installs the commit listener, retain hook and (semi_sync)
  /// commit waiter. Attach before serving traffic.
  static StatusOr<std::unique_ptr<Primary>> Attach(serve::Server* server,
                                                   PrimaryOptions options);

  ~Primary() override;
  Primary(const Primary&) = delete;
  Primary& operator=(const Primary&) = delete;

  // net::ReplHandler ---------------------------------------------------------
  StatusOr<net::WireReplSubscribeReply> HandleSubscribe(
      const net::WireReplSubscribe& sub) override;
  StatusOr<net::WireReplRecords> HandleFetch(
      const net::WireReplFetch& fetch, const CancelToken* cancel) override;
  StatusOr<net::WireReplCkptChunk> HandleCkptFetch(
      const net::WireReplCkptFetch& fetch) override;

  /// The current epoch (from the persisted history).
  uint64_t epoch() const;
  /// True once a newer-epoch subscriber deposed this primary.
  bool fenced() const;

  /// Semi-sync wait for `lsn` (the installed commit waiter; public for
  /// tests). OK when some subscriber acked ≥ lsn within the timeout.
  Status WaitSemiSync(uint64_t lsn);

  /// Forgets a subscriber, releasing its GC retention pin. A dead follower
  /// otherwise pins log files forever; operators drop it explicitly.
  void DropSubscriber(const std::string& follower_id);

  struct Stats {
    uint64_t epoch = 0;
    bool fenced = false;
    uint64_t subscribers = 0;
    uint64_t min_acked_lsn = 0;  ///< 0 when no subscribers.
    uint64_t fetches = 0;
    uint64_t records_shipped = 0;
    uint64_t snapshot_seeds = 0;     ///< Subscribes answered "re-seed".
    uint64_t fenced_refusals = 0;    ///< Stale-epoch requests refused.
    uint64_t semi_sync_timeouts = 0;
  };
  Stats stats() const;

 private:
  Primary(serve::Server* server, PrimaryOptions options);

  /// Commit listener body (runs under the serve writer lock).
  void OnCommit(uint64_t lsn, const store::WalRecord& record);

  /// Records after `after_lsn` read from the store's wal files (the feed
  /// fallback). kNotFound when after_lsn is below the GC horizon.
  StatusOr<net::WireReplRecords> FetchFromDisk(uint64_t after_lsn,
                                               size_t max_records,
                                               size_t max_bytes);

  /// Marks this primary deposed: fences the serve::Server read-only and
  /// refuses all further replication traffic. Requires mu_.
  void FenceLocked(uint64_t newer_epoch);

  struct Subscriber {
    uint64_t acked_lsn = 0;
    uint64_t epoch = 0;
  };

  serve::Server* server_;
  store::DurableEngine* store_;
  const PrimaryOptions options_;

  mutable std::mutex mu_;
  ReplMeta meta_;
  bool fenced_ = false;
  /// The committed lsn mirrored by OnCommit (the store's own counter is
  /// written under the writer lock; handlers read this copy instead).
  uint64_t last_lsn_ = 0;
  /// Recent commits, contiguous, front = feed_start_lsn_ + 1.
  std::deque<store::WalRecord> feed_;
  uint64_t feed_start_lsn_ = 0;  ///< lsn *before* the feed's first record.
  std::unordered_map<std::string, Subscriber> subscribers_;
  std::condition_variable records_cv_;  ///< Signaled per commit (long-polls).
  std::condition_variable acks_cv_;     ///< Signaled per ack (semi-sync).

  uint64_t fetches_ = 0;
  uint64_t records_shipped_ = 0;
  uint64_t snapshot_seeds_ = 0;
  uint64_t fenced_refusals_ = 0;
  uint64_t semi_sync_timeouts_ = 0;
};

}  // namespace kbt::repl

#endif  // KBT_REPL_PRIMARY_H_
