#ifndef KBT_SERVE_SERVER_H_
#define KBT_SERVE_SERVER_H_

/// \file
/// The in-process hypothetical-query server: the first user-facing surface of
/// the engine (ROADMAP "serving layer" item; a socket protocol can front this
/// later without touching the semantics).
///
/// Roles:
///   * ONE logical writer. Apply/Checkpoint serialize on a writer mutex, run
///     the transformation through a core Engine — or a store::DurableEngine,
///     so commits hit the WAL before acknowledgment — and publish the result
///     as a new immutable snapshot with one pointer swap (serve/snapshot.h).
///   * MANY readers. Each Session pins a sat::Solver + exec::WorldScratch for
///     its thread, acquires the current snapshot with one guarded pointer
///     copy, and evaluates modal queries / (nested) counterfactuals against
///     it — never waiting for the writer's τ or fsync, MVCC-style. Reads of
///     one session ride the previous call's warm solver arena and scratch
///     buffers.
///   * A cache bank shared by all readers (serve/cache_bank.h): per-sentence
///     grounding + frozen-CNF caches, so repeated reads of one sentence
///     ground/encode once and fork thereafter.
///
/// Consistency model: a read sees exactly one published snapshot (its
/// ReadResult carries the version); a write is visible to reads that acquire
/// after its Publish. Writes are serialized, so versions are a total order.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "base/cancel.h"
#include "base/status.h"
#include "core/engine.h"
#include "core/hypothetical.h"
#include "exec/scratch.h"
#include "sat/solver.h"
#include "serve/cache_bank.h"
#include "serve/snapshot.h"
#include "store/durable_engine.h"

namespace kbt::serve {

struct ServerOptions {
  /// Engine options for the write path and the μ options of reads. The τ
  /// thread/cache settings apply to write-path transformations; reads run
  /// sequentially on their session's thread.
  EngineOptions engine;
  /// Durable mode: write a checkpoint (and rotate the WAL) automatically every
  /// N commits. 0 = only explicit Checkpoint() calls. A failed automatic
  /// checkpoint does not fail the commit that triggered it (that commit is
  /// already durable and published); it is counted in
  /// ServerStats::checkpoint_failures and retried on the next commit.
  size_t checkpoint_every = 0;
  /// Per-read SAT conflict budget (0 = unlimited): a read whose μ descents
  /// spend more than this many conflicts in one world fails with
  /// kDeadlineExceeded even without a deadline — the server-side guard
  /// against a single pathological query holding a session forever.
  uint64_t read_sat_conflict_budget = 0;
  /// Byte budget for one sentence's caches in the bank (0 = unbounded).
  /// See QueryCacheBank; bounds per-sentence growth under domain churn.
  size_t cache_entry_byte_budget = 0;
};

/// One read: insert the antecedents left to right (hypothetically — the
/// snapshot is never modified), then check the consequent under the modality.
/// No antecedents = plain modal query.
struct ReadRequest {
  std::vector<std::string> antecedents;
  std::string consequent;
  Modality modality = Modality::kNecessarily;
  /// Relative deadline for this read, milliseconds; 0 = none. When it expires
  /// mid-evaluation the read fails with kDeadlineExceeded, the session solver
  /// is left at a usable root, and the session may be reused immediately.
  uint64_t deadline_ms = 0;
  /// External cancellation (e.g. a server-wide drain token); nullable, must
  /// outlive the call. Combined with the deadline via token parenting. When
  /// neither this nor deadline_ms nor a budget is set, the read path is
  /// bit-identical to the pre-deadline build.
  const CancelToken* cancel = nullptr;
};

struct ReadResult {
  bool holds = false;
  /// The snapshot version the request evaluated against.
  uint64_t snapshot_version = 0;
};

class Server;

/// One client's pinned read state: a solver whose arena stays warm across the
/// session's queries and the enumerator's scratch buffers. NOT thread-safe —
/// a session belongs to one thread at a time (create one per client thread).
/// Must not outlive its Server.
class Session {
 public:
  /// Evaluates one read against the current snapshot.
  StatusOr<ReadResult> Query(const ReadRequest& request);

  /// Sugar: modal query ("does `sentence` necessarily/possibly hold?").
  StatusOr<ReadResult> Holds(std::string_view sentence,
                             Modality modality = Modality::kNecessarily);

  /// Forwards to the server's serialized write path; returns the new version.
  StatusOr<uint64_t> Apply(std::string_view expression);

  uint64_t id() const { return id_; }

 private:
  friend class Server;
  Session(Server* server, uint64_t id) : server_(server), id_(id) {}

  Server* server_;
  uint64_t id_;
  sat::Solver solver_;
  exec::WorldScratch scratch_;
};

class Server {
 public:
  /// In-memory server starting from `initial` (version 0).
  explicit Server(Knowledgebase initial, ServerOptions options = ServerOptions());

  /// Durable server: opens (or recovers) the store in `dir` and publishes its
  /// committed state as version 0. Every Apply commits through the WAL before
  /// the snapshot advances.
  static StatusOr<std::unique_ptr<Server>> OpenDurable(
      const std::string& dir, const Knowledgebase& initial,
      store::StoreOptions store_options = store::StoreOptions(),
      ServerOptions options = ServerOptions());

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Creates a session. Thread-safe; the session itself is single-threaded.
  std::unique_ptr<Session> StartSession();

  /// Serialized write path: applies the transformation to the current state,
  /// commits it (durable mode), and publishes the new snapshot. Returns the
  /// published version. Readers are never blocked: they stay on the previous
  /// snapshot until Publish lands.
  StatusOr<uint64_t> Apply(std::string_view expression);

  /// Durable mode: checkpoint + WAL rotation (no-op without a store).
  Status Checkpoint();

  /// Replication: commits a record shipped from a primary (through the same
  /// ApplyWalRecord path recovery replays — see DurableEngine) and publishes
  /// the result as a new snapshot, so replica reads see every acked lsn.
  /// Works in read-only mode — that is its purpose. Durable mode only.
  /// Returns the published snapshot version.
  StatusOr<uint64_t> ApplyReplicated(const store::WalRecord& record);

  /// Read-only mode (a follower, or a fenced ex-primary): Apply is refused
  /// with a typed kReadOnly error carrying `redirect_hint` ("host:port" of
  /// the writable primary; may be empty). ApplyReplicated still commits.
  /// Thread-safe; flipped by follower promote and primary fencing.
  void SetReadOnly(bool read_only, std::string redirect_hint = "");
  bool read_only() const { return read_only_.load(std::memory_order_acquire); }
  /// The redirect advertised with kReadOnly rejections (empty = none).
  std::string redirect_hint() const;

  /// Replication: semi-sync hook. When set, Apply — after its commit is
  /// durable and published — calls the waiter with the commit's lsn *outside*
  /// the writer lock (follower acks must not queue behind it) and propagates
  /// its error to the caller. The commit itself stays durable and visible
  /// either way: a semi-sync timeout means "not yet on any replica", never
  /// "rolled back". Setup-time only (attach before serving traffic).
  void SetCommitWaiter(std::function<Status(uint64_t lsn)> waiter) {
    commit_waiter_ = std::move(waiter);
  }

  /// The current snapshot (never waits for a writer; see SnapshotRegistry).
  std::shared_ptr<const Snapshot> CurrentSnapshot() const {
    return registry_.Current();
  }

  struct ServerStats {
    uint64_t commits = 0;
    uint64_t reads = 0;
    /// Automatic checkpoints (ServerOptions::checkpoint_every) that failed
    /// after their commit was published.
    uint64_t checkpoint_failures = 0;
    /// Cache-bank entry lookups (hit = sentence already resolved).
    uint64_t bank_hits = 0;
    uint64_t bank_misses = 0;
    /// Sentence entries evicted for exceeding the byte budget (bounded-bank
    /// mode only).
    uint64_t bank_budget_evictions = 0;
    uint64_t snapshot_version = 0;
    /// Deadline/budget activity across all sessions: reads that failed with
    /// kDeadlineExceeded, solver interrupt-token polls, and solves abandoned
    /// by a budget/token trip (sat::Solver::Stats counters, aggregated).
    uint64_t deadlines_exceeded = 0;
    uint64_t sat_interrupt_checks = 0;
    uint64_t sat_budget_trips = 0;
  };
  ServerStats stats() const;

  const ServerOptions& options() const { return options_; }
  /// Durable-mode store handle (nullptr in-memory). Exposed for tests, the
  /// shell's `lsn`/introspection commands and the net drain's broken-store
  /// check; writes must still go through Apply.
  store::DurableEngine* store() { return durable_.get(); }

 private:
  friend class Session;

  Server(ServerOptions options, Knowledgebase initial);

  /// Read-path core: resolves the request against `snap` with `session`'s
  /// pinned state, through the cache bank when enabled.
  StatusOr<ReadResult> ExecuteRead(Session& session, const Snapshot& snap,
                                   const ReadRequest& request);

  /// Write-path tail under writer_mu_: publish + stats + auto-checkpoint.
  /// Returns the published version; the commit stands whatever the
  /// checkpoint does.
  uint64_t FinishCommit(Knowledgebase result);

  /// kReadOnly (with the redirect hint in the message) when read-only.
  Status RefuseWhenReadOnly();

  ServerOptions options_;
  SnapshotRegistry registry_;
  QueryCacheBank bank_;

  /// Writer state, all under writer_mu_.
  std::mutex writer_mu_;
  std::unique_ptr<Engine> own_engine_;            ///< In-memory mode.
  std::unique_ptr<store::DurableEngine> durable_; ///< Durable mode.
  size_t commits_since_checkpoint_ = 0;

  /// Read-only gate + redirect hint (hint under its own mutex: it changes on
  /// promote/fence while reads of it ride error paths on worker threads).
  std::atomic<bool> read_only_{false};
  mutable std::mutex hint_mu_;
  std::string redirect_hint_;
  std::function<Status(uint64_t)> commit_waiter_;

  std::atomic<uint64_t> next_session_id_{1};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> checkpoint_failures_{0};
  std::atomic<uint64_t> deadlines_exceeded_{0};
  std::atomic<uint64_t> sat_interrupt_checks_{0};
  std::atomic<uint64_t> sat_budget_trips_{0};
};

}  // namespace kbt::serve

#endif  // KBT_SERVE_SERVER_H_
