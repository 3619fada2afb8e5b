/// \file
/// Replication under fire. Three layers of injected failure, all
/// deterministic:
///
///   * FaultTransport over the replication link — every NetFaultKind
///     (drop/truncate/garbage/duplicate/delay) on both directions of the
///     wire, during steady-state streaming and during the subscribe
///     handshake. Invariant: the follower always converges and never
///     declares kLost over wire noise — kLost is reserved for real
///     divergence.
///   * FaultInjectionEnv crash matrices on both stores: every crash flavor
///     (before/after/torn) at every write-side syscall index of a fixed
///     workload, followed by recovery + reopen. Invariant: the pair
///     reconverges to identical state (knowledgebase equality).
///   * A kill/partition/failover chaos scenario: semi-sync acked commits
///     survive primary kill -9 + follower promotion; the deposed primary is
///     fenced on first contact with the new epoch; its divergent unacked
///     tail is discarded by a lineage-driven re-seed, never merged.
///
/// Followers are driven by PollOnce on the test thread (no pull threads), so
/// every run is a deterministic schedule.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/transport.h"
#include "repl/follower.h"
#include "repl/meta.h"
#include "repl/primary.h"
#include "serve/server.h"
#include "store/fault_env.h"
#include "store/wal.h"

namespace kbt::repl {
namespace {

Knowledgebase InitialKb() {
  return *MakeSingletonKb({{"P", 1}, {"Q", 1}}, {{"P", {{"a"}}}});
}

const char* KindName(net::NetFaultKind k) {
  switch (k) {
    case net::NetFaultKind::kDropConnection: return "drop";
    case net::NetFaultKind::kTruncate: return "truncate";
    case net::NetFaultKind::kGarbage: return "garbage";
    case net::NetFaultKind::kDuplicate: return "duplicate";
    case net::NetFaultKind::kDelay: return "delay";
  }
  return "?";
}

/// Primary + follower over fault-injection envs, linked by pipes whose
/// server ends are always FaultTransport-wrapped (so tests can corrupt either
/// wire direction of the live connection). The primary side can be torn down
/// and reopened from its env's durable view — the kill -9 + restart model.
class ChaosHarness {
 public:
  explicit ChaosHarness(PrimaryOptions popts = PrimaryOptions()) {
    OpenPrimary(popts);
  }

  ~ChaosHarness() {
    follower.reset();
    ClosePrimary();
  }

  void OpenPrimary(PrimaryOptions popts = PrimaryOptions()) {
    store::StoreOptions sopts;
    sopts.env = &penv_;
    auto server = serve::Server::OpenDurable("primary", InitialKb(), sopts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    pserver_ = std::move(*server);
    auto primary = Primary::Attach(pserver_.get(), popts);
    ASSERT_TRUE(primary.ok()) << primary.status().ToString();
    primary_ = std::move(*primary);
    net::NetServerOptions nopts;
    nopts.repl = primary_.get();
    net_ = std::make_unique<net::NetServer>(pserver_.get(), nopts);
  }

  /// Kills the serving side: closes every connection, joins the frame-loop
  /// threads, destroys net/primary/server. The env keeps the store bytes.
  void ClosePrimary() {
    for (auto& t : server_ends_) t->Shutdown();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    server_ends_.clear();
    threads_.clear();
    net_.reset();
    primary_.reset();
    pserver_.reset();
  }

  FollowerOptions MakeFollowerOptions(const std::string& dir) {
    FollowerOptions fopts;
    fopts.node_id = "replica";
    fopts.dir = dir;
    fopts.initial = InitialKb();
    fopts.store.env = &fenv_;
    fopts.connect = [this] { return Connect(); };
    fopts.poll_wait_ms = 0;
    fopts.reconnect_backoff_ms = 0;
    return fopts;
  }

  void OpenFollower() {
    auto opened = Follower::Open(MakeFollowerOptions("replica"));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    follower = std::move(*opened);
  }

  /// Drives PollOnce until `lsn` is applied; every round must be survivable.
  void CatchUp(uint64_t lsn) {
    for (int i = 0; i < 500 && follower->applied_lsn() < lsn; ++i) {
      Status s = follower->PollOnce();
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_NE(follower->state(), FollowerState::kLost);
    }
    ASSERT_EQ(follower->applied_lsn(), lsn);
  }

  StatusOr<std::unique_ptr<net::Transport>> Connect() {
    if (net_ == nullptr) {
      return Status::Unavailable("primary is down");
    }
    auto [client_end, server_end] = net::MakePipePair();
    auto fault = std::make_shared<net::FaultTransport>(std::move(server_end));
    if (arm_on_connect_armed_) {
      arm_on_connect_armed_ = false;
      fault->FailWriteAt(0, arm_on_connect_kind_);
    }
    server_ends_.push_back(fault);
    threads_.emplace_back([this, fault] { net_->ServeConnection(*fault); });
    return std::unique_ptr<net::Transport>(std::move(client_end));
  }

  /// The FaultTransport under the follower's pinned connection.
  net::FaultTransport& CurrentLink() { return *server_ends_.back(); }

  /// The next connection's first reply (the subscribe reply) gets `kind`.
  void ArmNextConnect(net::NetFaultKind kind) {
    arm_on_connect_armed_ = true;
    arm_on_connect_kind_ = kind;
  }

  serve::Server& pserver() { return *pserver_; }
  Primary& primary() { return *primary_; }
  store::FaultInjectionEnv& penv() { return penv_; }
  store::FaultInjectionEnv& fenv() { return fenv_; }
  bool primary_open() const { return net_ != nullptr; }

  std::unique_ptr<Follower> follower;

 private:
  store::FaultInjectionEnv penv_;
  store::FaultInjectionEnv fenv_;
  std::unique_ptr<serve::Server> pserver_;
  std::unique_ptr<Primary> primary_;
  std::unique_ptr<net::NetServer> net_;
  std::vector<std::shared_ptr<net::FaultTransport>> server_ends_;
  std::vector<std::thread> threads_;
  bool arm_on_connect_armed_ = false;
  net::NetFaultKind arm_on_connect_kind_ = net::NetFaultKind::kDropConnection;
};

const net::NetFaultKind kAllKinds[] = {
    net::NetFaultKind::kDropConnection, net::NetFaultKind::kTruncate,
    net::NetFaultKind::kGarbage, net::NetFaultKind::kDuplicate,
    net::NetFaultKind::kDelay};

// --- The wire-fault matrix ---------------------------------------------------

TEST(ReplFaultTest, StreamingSurvivesEveryWireFaultInBothDirections) {
  enum class Dir { kRequest, kReply };  // Which direction the fault corrupts.
  for (Dir dir : {Dir::kRequest, Dir::kReply}) {
    for (net::NetFaultKind kind : kAllKinds) {
      SCOPED_TRACE(std::string(dir == Dir::kRequest ? "request" : "reply") +
                   " × " + KindName(kind));
      ChaosHarness h;
      ASSERT_TRUE(h.pserver().Apply("tau{P(b)}").ok());
      h.OpenFollower();
      h.CatchUp(1);

      // Corrupt the live link: the primary-side transport's next read is a
      // fetch request, its next write the corresponding reply. Keep a
      // reference to THIS link — a recovering follower redials a new one.
      net::FaultTransport& link = h.CurrentLink();
      if (dir == Dir::kRequest) {
        link.FailReadAt(0, kind, std::chrono::milliseconds(20));
      } else {
        link.FailWriteAt(0, kind, std::chrono::milliseconds(20));
      }

      ASSERT_TRUE(h.pserver().Apply("tau{Q(c)}").ok());
      h.CatchUp(2);

      // The fault actually fired (or this run validated nothing), the
      // follower never declared divergence, and state reconverged exactly.
      EXPECT_GE(link.faults_fired(), 1u);
      EXPECT_NE(h.follower->state(), FollowerState::kLost);
      EXPECT_EQ(h.follower->server()->store()->kb(),
                h.pserver().store()->kb());
    }
  }
}

TEST(ReplFaultTest, SubscribeHandshakeSurvivesEveryWireFault) {
  for (net::NetFaultKind kind : kAllKinds) {
    SCOPED_TRACE(KindName(kind));
    ChaosHarness h;
    ASSERT_TRUE(h.pserver().Apply("tau{P(b)}").ok());
    h.OpenFollower();
    h.CatchUp(1);

    // Force a reconnect, and make the NEXT connection's first reply — the
    // subscribe reply — arrive corrupted. The follower must back off and
    // heal on the connection after (clean), not declare divergence.
    h.ArmNextConnect(kind);
    h.CurrentLink().Shutdown();

    ASSERT_TRUE(h.pserver().Apply("tau{Q(c)}").ok());
    h.CatchUp(2);
    EXPECT_GE(h.follower->stats().resubscribes, 1u);
    EXPECT_NE(h.follower->state(), FollowerState::kLost);
    EXPECT_EQ(h.follower->server()->store()->kb(),
              h.pserver().store()->kb());
  }
}

// --- Crash matrices ----------------------------------------------------------

const store::FaultKind kCrashKinds[] = {store::FaultKind::kCrashBefore,
                                        store::FaultKind::kCrashAfter,
                                        store::FaultKind::kCrashTorn};

const char* CrashName(store::FaultKind k) {
  switch (k) {
    case store::FaultKind::kCrashBefore: return "crash-before";
    case store::FaultKind::kCrashAfter: return "crash-after";
    case store::FaultKind::kCrashTorn: return "crash-torn";
    default: return "?";
  }
}

TEST(ReplFaultTest, FollowerCrashMatrixReconvergesBitIdentical) {
  // For every crash flavor, at every write-side syscall of the follower's
  // life (seed install, WAL appends, syncs, meta writes): crash there,
  // restart from the durable view, reconverge. The sweep ends at the first
  // index the workload never reaches.
  for (store::FaultKind kind : kCrashKinds) {
    for (uint64_t op = 1;; ++op) {
      SCOPED_TRACE(std::string(CrashName(kind)) + " @ op " +
                   std::to_string(op));
      ASSERT_LT(op, 200u) << "sweep did not terminate";
      ChaosHarness h;
      for (const char* e : {"tau{P(b)}", "tau{Q(c)}", "tau{P(d)}"}) {
        ASSERT_TRUE(h.pserver().Apply(e).ok());
      }

      h.fenv().FailAt(op, kind);
      auto opened = Follower::Open(h.MakeFollowerOptions("replica"));
      if (opened.ok()) {
        h.follower = std::move(*opened);
        for (int i = 0; i < 200 && h.follower->applied_lsn() < 3; ++i) {
          if (!h.follower->PollOnce().ok()) break;
        }
      }

      if (!h.fenv().crashed()) {
        // The armed op lies beyond the whole workload: the clean run must
        // have fully converged, and the sweep is complete for this flavor.
        h.fenv().ClearFault();
        ASSERT_TRUE(h.follower != nullptr);
        ASSERT_EQ(h.follower->applied_lsn(), 3u);
        break;
      }

      // kill -9 at op `op` → remount the durable view → a fresh Follower
      // over the same directory must reconverge, whatever survived.
      h.follower.reset();
      h.fenv().RecoverFromCrash();
      h.OpenFollower();
      h.CatchUp(3);
      EXPECT_EQ(h.follower->server()->store()->kb(),
                h.pserver().store()->kb());
    }
  }
}

TEST(ReplFaultTest, PrimaryCrashMatrixReconvergesBitIdentical) {
  // Crash the PRIMARY's store mid-workload instead: the follower must ride
  // out the outage (its connection dies with the primary) and converge with
  // whatever acknowledged prefix recovery lands on — never ahead of it.
  for (store::FaultKind kind : kCrashKinds) {
    for (uint64_t op = 1;; ++op) {
      SCOPED_TRACE(std::string(CrashName(kind)) + " @ op " +
                   std::to_string(op));
      ASSERT_LT(op, 200u) << "sweep did not terminate";
      ChaosHarness h;
      h.OpenFollower();
      h.CatchUp(0);

      h.penv().FailAt(op, kind);
      for (const char* e : {"tau{P(b)}", "tau{Q(c)}", "tau{P(d)}"}) {
        auto v = h.pserver().Apply(e);
        if (!v.ok()) break;  // The crash ate this commit's acknowledgment.
      }

      if (!h.penv().crashed()) {
        h.penv().ClearFault();
        h.CatchUp(3);
        EXPECT_EQ(h.follower->server()->store()->kb(),
                  h.pserver().store()->kb());
        break;
      }

      // kill -9 the primary, restart it from the durable view. The follower
      // reconnects and fetches whatever lsn recovery reached; a follower
      // AHEAD of the recovered primary would be refused as divergent — this
      // sweep also proves that cannot happen (records ship only after their
      // commit is durable).
      h.ClosePrimary();
      h.penv().RecoverFromCrash();
      h.OpenPrimary();
      uint64_t recovered = h.pserver().store()->lsn();
      h.CatchUp(recovered);
      EXPECT_NE(h.follower->state(), FollowerState::kLost);
      EXPECT_EQ(h.follower->server()->store()->kb(),
                h.pserver().store()->kb());
    }
  }
}

// --- Kill + failover chaos ---------------------------------------------------

TEST(ReplFaultTest, SemiSyncAckedCommitsSurviveKillAndPromotion) {
  PrimaryOptions popts;
  popts.semi_sync = true;
  popts.semi_sync_timeout_ms = 100;
  ChaosHarness h(popts);
  h.OpenFollower();

  // Two semi-sync commits, each acknowledged only after the follower's ack.
  for (int i = 1; i <= 2; ++i) {
    StatusOr<uint64_t> version = 0;
    std::string expr = i == 1 ? "tau{P(b)}" : "tau{Q(c)}";
    std::thread applier([&] { version = h.pserver().Apply(expr); });
    for (int r = 0;
         r < 500 && h.primary().stats().min_acked_lsn < uint64_t(i); ++r) {
      ASSERT_TRUE(h.follower->PollOnce().ok());
    }
    applier.join();
    ASSERT_TRUE(version.ok()) << version.status().ToString();
  }

  // A third commit no replica acks: durable on the primary only, surfaced as
  // the typed "unreplicated" timeout — the caller knows its durability class.
  auto unreplicated = h.pserver().Apply("tau{P(lost)}");
  ASSERT_FALSE(unreplicated.ok());
  EXPECT_EQ(unreplicated.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_EQ(h.pserver().store()->lsn(), 3u);

  // kill -9 the primary.
  h.penv().Crash();
  h.ClosePrimary();

  // Fail over: promote the follower. Every semi-sync-ACKED commit is there.
  auto epoch = h.follower->Promote();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 2u);
  ASSERT_EQ(h.follower->applied_lsn(), 2u);
  {
    auto session = h.follower->server()->StartSession();
    EXPECT_TRUE((*session->Holds("P(b)")).holds);
    EXPECT_TRUE((*session->Holds("Q(c)")).holds);
    EXPECT_FALSE((*session->Holds("P(lost)")).holds);  // Unacked: not owed.
  }

  // The new primary commits its own lsn 3 — same position as the dead
  // primary's unacked tail, different contents. The lineages have forked.
  ASSERT_TRUE(h.follower->server()->Apply("tau{Q(post)}").ok());

  // Serve the new epoch: attach a Primary to the promoted server. It reads
  // the promoted lineage {(1,0),(2,2)} from the store's replmeta.
  auto primary_b = Primary::Attach(h.follower->server(), PrimaryOptions());
  ASSERT_TRUE(primary_b.ok()) << primary_b.status().ToString();
  EXPECT_EQ((*primary_b)->epoch(), 2u);
  net::NetServerOptions nopts_b;
  nopts_b.repl = primary_b->get();
  net::NetServer net_b(h.follower->server(), nopts_b);
  std::vector<std::shared_ptr<net::Transport>> b_ends;
  std::vector<std::thread> b_threads;
  auto connect_b = [&]() -> StatusOr<std::unique_ptr<net::Transport>> {
    auto [client_end, server_end] = net::MakePipePair();
    std::shared_ptr<net::Transport> shared = std::move(server_end);
    b_ends.push_back(shared);
    b_threads.emplace_back([&net_b, shared] { net_b.ServeConnection(*shared); });
    return std::unique_ptr<net::Transport>(std::move(client_end));
  };

  // The dead primary's machine comes back. First as a primary: one contact
  // from the new epoch fences it before it can take a single write.
  h.penv().RecoverFromCrash();
  h.OpenPrimary();
  ASSERT_EQ(h.pserver().store()->lsn(), 3u);  // Its divergent tail survived.
  net::WireReplSubscribe from_b;
  from_b.follower_id = "beta";
  from_b.epoch = 2;
  from_b.start_lsn = 2;
  from_b.has_state = 1;
  auto refused = h.primary().HandleSubscribe(from_b);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFenced);
  EXPECT_TRUE(h.primary().fenced());
  EXPECT_EQ(h.pserver().Apply("tau{P(never)}").status().code(),
            StatusCode::kReadOnly);
  h.ClosePrimary();

  // Then as a follower of the new primary. Its log (epoch 1, lsn 3) crosses
  // the fork at lsn 2: the lineage check demands a re-seed, and the
  // divergent record is discarded — never merged, never "caught up" across.
  FollowerOptions a_opts;
  a_opts.node_id = "old-primary";
  a_opts.dir = "primary";
  a_opts.initial = InitialKb();
  a_opts.store.env = &h.penv();
  a_opts.connect = connect_b;
  a_opts.poll_wait_ms = 0;
  a_opts.reconnect_backoff_ms = 0;
  auto reborn = Follower::Open(std::move(a_opts));
  ASSERT_TRUE(reborn.ok()) << reborn.status().ToString();
  for (int i = 0; i < 500 && (*reborn)->applied_lsn() < 3; ++i) {
    ASSERT_TRUE((*reborn)->PollOnce().ok());
  }
  EXPECT_EQ((*reborn)->applied_lsn(), 3u);
  EXPECT_EQ((*reborn)->epoch(), 2u);
  EXPECT_EQ((*reborn)->stats().snapshot_installs, 1u);
  {
    auto session = (*reborn)->server()->StartSession();
    EXPECT_FALSE((*session->Holds("P(lost)")).holds);  // Divergence gone.
    EXPECT_TRUE((*session->Holds("Q(post)")).holds);   // New lineage adopted.
  }
  EXPECT_EQ((*reborn)->server()->store()->kb(),
            h.follower->server()->store()->kb());

  reborn->reset();
  for (auto& t : b_ends) t->Shutdown();
  for (std::thread& t : b_threads) t.join();
}

// --- Stale-epoch batches at the follower ------------------------------------

/// A scripted primary: hands out epoch 2, then serves one batch stamped with
/// the DEPOSED epoch 1 — a dead primary's parting shot arriving late.
class StaleBatchPrimary : public net::ReplHandler {
 public:
  StatusOr<net::WireReplSubscribeReply> HandleSubscribe(
      const net::WireReplSubscribe& sub) override {
    (void)sub;
    net::WireReplSubscribeReply reply;
    reply.primary_id = "scripted";
    reply.epoch = 2;
    reply.primary_lsn = 1;
    reply.horizon_lsn = 0;
    reply.need_snapshot = 0;
    reply.epoch_history = {{1, 0}, {2, 0}};
    return reply;
  }

  StatusOr<net::WireReplRecords> HandleFetch(
      const net::WireReplFetch& fetch, const CancelToken* cancel) override {
    (void)cancel;
    net::WireReplRecords reply;
    reply.start_lsn = fetch.after_lsn + 1;
    reply.primary_lsn = 1;
    if (++fetches_ == 1) {
      reply.epoch = 1;  // Stale: the follower adopted epoch 2 at subscribe.
      reply.records.emplace_back(
          uint8_t(store::WalRecordKind::kTransform), "tau{P(stale)}");
    } else {
      reply.epoch = 2;  // Subsequent batches are honest (and empty).
    }
    return reply;
  }

  StatusOr<net::WireReplCkptChunk> HandleCkptFetch(
      const net::WireReplCkptFetch& fetch) override {
    (void)fetch;
    return Status::NotFound("scripted primary has no checkpoints");
  }

  int fetches_ = 0;
};

TEST(ReplFaultTest, StaleEpochBatchIsRefusedUnapplied) {
  serve::Server front(InitialKb());
  StaleBatchPrimary scripted;
  net::NetServerOptions nopts;
  nopts.repl = &scripted;
  net::NetServer net(&front, nopts);
  std::vector<std::shared_ptr<net::Transport>> ends;
  std::vector<std::thread> threads;

  store::FaultInjectionEnv fenv;
  {
    // Give the follower pre-existing state (checkpoint-0, lsn 0): a FRESH
    // follower insists on a checkpoint seed, which the scripted primary
    // doesn't offer — this test is about the streaming epoch check.
    store::StoreOptions sopts;
    sopts.env = &fenv;
    auto seeded = serve::Server::OpenDurable("replica", InitialKb(), sopts);
    ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  }
  FollowerOptions fopts;
  fopts.node_id = "replica";
  fopts.dir = "replica";
  fopts.initial = InitialKb();
  fopts.store.env = &fenv;
  fopts.poll_wait_ms = 0;
  fopts.reconnect_backoff_ms = 0;
  fopts.connect = [&]() -> StatusOr<std::unique_ptr<net::Transport>> {
    auto [client_end, server_end] = net::MakePipePair();
    std::shared_ptr<net::Transport> shared = std::move(server_end);
    ends.push_back(shared);
    threads.emplace_back([&net, shared] { net.ServeConnection(*shared); });
    return std::unique_ptr<net::Transport>(std::move(client_end));
  };

  auto follower = Follower::Open(std::move(fopts));
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  EXPECT_EQ((*follower)->epoch(), 2u);

  // Drive until the stale batch has been seen and refused.
  for (int i = 0; i < 50 && (*follower)->stats().stale_batches_refused < 1;
       ++i) {
    ASSERT_TRUE((*follower)->PollOnce().ok());
  }
  EXPECT_EQ((*follower)->stats().stale_batches_refused, 1u);
  EXPECT_EQ((*follower)->stats().records_applied, 0u);
  EXPECT_EQ((*follower)->applied_lsn(), 0u);
  EXPECT_NE((*follower)->state(), FollowerState::kLost);
  {
    auto session = (*follower)->server()->StartSession();
    EXPECT_FALSE((*session->Holds("P(stale)")).holds);
  }

  follower->reset();
  for (auto& t : ends) t->Shutdown();
  for (std::thread& t : threads) t.join();
}

}  // namespace
}  // namespace kbt::repl
