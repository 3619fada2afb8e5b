#ifndef KBT_REPL_FOLLOWER_H_
#define KBT_REPL_FOLLOWER_H_

/// \file
/// The replica side of WAL-shipping replication.
///
/// A Follower owns a durable serve::Server of its own: it subscribes to a
/// primary over any net::Transport, pulls record batches, and commits each
/// one through serve::Server::ApplyReplicated — the exact replay path crash
/// recovery uses — so its state is bit-identical to the primary's at every
/// acked lsn *by construction*, and every applied record is on the
/// follower's own WAL before the next fetch acks it. Reads are served from
/// the follower's published snapshots like any server's; writes are refused
/// with a typed kReadOnly error carrying a redirect hint to the primary.
///
/// Catch-up: the subscribe reply says whether the follower's position is
/// still fetchable from the primary's log (stream records) or below its GC
/// horizon / fresh / forked by a promotion it missed (install a checkpoint —
/// chunked transfer — then stream from there). Only Open installs a
/// checkpoint. A re-seed demanded later is terminal (kLost, kDataLoss), so
/// server() never changes after Open; reopening the follower re-seeds it.
///
/// Fencing: the follower persists the primary's epoch history at subscribe
/// and stamps its adopted epoch on every fetch. A batch from an older epoch
/// (a deposed primary's parting shots) is refused without applying anything;
/// the primary symmetrically refuses fetches from epochs it has superseded.
///
/// Promote() ends replication: it appends a new epoch (starting at the
/// applied lsn) to the persisted history *before* accepting writes, so any
/// later primary can place this lineage's fork point exactly.
///
/// Driving it: Start() spawns a pull thread (production); tests call
/// PollOnce() directly for deterministic single-threaded rounds. Transient
/// trouble (connection died, primary restarted) heals inside PollOnce via
/// reconnect/resubscribe; divergence and a re-seed after Open are terminal
/// (state kLost).

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "base/status.h"
#include "net/frame.h"
#include "net/transport.h"
#include "rel/knowledgebase.h"
#include "repl/meta.h"
#include "serve/server.h"
#include "store/durable_engine.h"

namespace kbt::repl {

struct FollowerOptions {
  /// This follower's identity at the primary (subscription key).
  std::string node_id = "replica";
  /// The follower's own store directory.
  std::string dir;
  /// Schema seed for a fresh store; ignored once the first checkpoint is
  /// installed (recovery takes over).
  Knowledgebase initial{Schema()};
  store::StoreOptions store;
  serve::ServerOptions serve;
  /// (Re)connects to the primary; each call is one fresh connection. Tests
  /// hand in pipe/fault transports, production wraps net::DialTcp.
  std::function<StatusOr<std::unique_ptr<net::Transport>>()> connect;
  /// Long-poll window per fetch (server clamps its own bound).
  uint32_t poll_wait_ms = 1'000;
  /// Pause between reconnect/resubscribe attempts (0 = retry at once).
  uint64_t reconnect_backoff_ms = 50;
  /// Advertised to writing clients in kReadOnly rejections ("host:port" of
  /// the primary; empty = no hint).
  std::string redirect_hint;
};

enum class FollowerState : uint8_t {
  kIdle = 0,       ///< Opened/stopped; not pulling.
  kStreaming = 1,  ///< Pull thread running.
  kLost = 2,       ///< Diverged from the primary; replication is over.
  kPromoted = 3,   ///< Promote() succeeded; this store now leads.
};

class Follower {
 public:
  /// Connects, subscribes, and catches up (installing a checkpoint when the
  /// primary says so) — synchronously, so an open Follower is a consistent
  /// read replica before any thread starts. Fails on any handshake error;
  /// transient errors *after* open heal inside the pull loop instead.
  static StatusOr<std::unique_ptr<Follower>> Open(FollowerOptions options);

  ~Follower();
  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  /// Spawns the pull thread. Idempotent while running.
  Status Start();

  /// Stops and joins the pull thread (unblocking a parked long-poll via
  /// transport shutdown). Idempotent.
  void Stop();

  /// One fetch→apply round on the calling thread, including reconnect and
  /// resubscribe repair. Returns OK for everything survivable (the next call
  /// retries); a terminal status — divergence, a local commit failure —
  /// flips the state to kLost and is returned. Not thread-safe against
  /// Start()'s thread; use one driving mode at a time.
  Status PollOnce();

  /// Failover: stop pulling, persist a new epoch beginning at the applied
  /// lsn, then open for writes. Returns the new epoch. The durable order —
  /// history first, writes after — is what lets any later primary find this
  /// fork point.
  StatusOr<uint64_t> Promote();

  /// The follower's own server (reads; writes get kReadOnly until Promote).
  /// Fixed from Open on: callers may hold it for the follower's life.
  serve::Server* server() { return server_.get(); }

  uint64_t applied_lsn() const {
    return applied_lsn_.load(std::memory_order_acquire);
  }
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  FollowerState state() const {
    return state_.load(std::memory_order_acquire);
  }

  struct Stats {
    FollowerState state = FollowerState::kIdle;
    uint64_t epoch = 0;
    uint64_t applied_lsn = 0;
    /// The primary's lsn as of the last batch (lag = primary_lsn - applied).
    uint64_t primary_lsn = 0;
    uint64_t batches_applied = 0;
    uint64_t records_applied = 0;
    uint64_t reconnects = 0;
    uint64_t resubscribes = 0;
    uint64_t snapshot_installs = 0;
    /// Batches from a deposed primary's stale epoch, refused unapplied.
    uint64_t stale_batches_refused = 0;
  };
  Stats stats() const;

 private:
  explicit Follower(FollowerOptions options);

  /// One request–reply over the pinned connection. A transport-level failure
  /// drops the connection (PollOnce redials); a typed error frame becomes
  /// its Status with *typed = true.
  Status Exchange(uint8_t type, const std::string& payload,
                  uint8_t expected_reply, std::string* reply_payload,
                  bool* typed);

  /// Dials options_.connect and pins the transport.
  Status Connect();
  /// Subscribe over the pinned transport: adopt the primary's epoch history
  /// (persisted), install a checkpoint when told to, sync applied_lsn_.
  Status Subscribe();
  /// Chunked checkpoint download + atomic install + store reopen (Open's
  /// catch-up only).
  Status InstallSnapshot(uint64_t snapshot_lsn);
  /// (Re)opens server_ over the follower's store directory, read-only.
  Status OpenServer();
  Status ApplyBatch(const net::WireReplRecords& batch);
  void Backoff();
  /// Terminal failure: flip to kLost and stop pulling.
  Status Lost(Status why);

  FollowerOptions options_;
  store::Env* env_;

  std::unique_ptr<serve::Server> server_;

  /// Pinned connection; shared so Stop() can Shutdown() it (thread-safe on
  /// the transport) while the pull thread blocks inside Exchange.
  std::mutex transport_mu_;
  std::shared_ptr<net::Transport> transport_;
  bool subscribed_ = false;  ///< Pull-thread-only (like seq_).
  bool opened_ = false;      ///< Open() finished; a re-seed is now terminal.
  uint16_t next_seq_ = 1;

  std::atomic<uint64_t> applied_lsn_{0};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<FollowerState> state_{FollowerState::kIdle};
  std::atomic<bool> stop_{false};
  std::thread pull_thread_;

  mutable std::mutex stats_mu_;
  ReplMeta meta_;  // Guarded by stats_mu_ after Open.
  uint64_t primary_lsn_ = 0;
  uint64_t batches_applied_ = 0;
  uint64_t records_applied_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t resubscribes_ = 0;
  uint64_t snapshot_installs_ = 0;
  uint64_t stale_batches_refused_ = 0;
};

}  // namespace kbt::repl

#endif  // KBT_REPL_FOLLOWER_H_
