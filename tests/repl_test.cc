/// \file
/// Replication semantics tests — every agent driven deterministically:
/// primary handlers are called directly (they are plain methods), the
/// follower pulls over in-memory pipes through the production NetServer
/// frame loop, one PollOnce at a time.
///
/// Covered here:
///   * epoch-history meta file: roundtrip, typed rejection of every defect;
///   * fresh-follower checkpoint seeding + streaming, with identity
///     (knowledgebase equality) against the primary at every sync;
///   * catch-up from the primary's on-disk WAL once the in-memory feed has
///     wrapped;
///   * semi-sync acks: a pulling follower unblocks Apply; an idle subscriber
///     times it out with the typed "durable locally, unreplicated" error —
///     and the commit survives anyway;
///   * fencing, both directions: a newer-epoch subscriber deposes the
///     primary (read-only + kFenced forever after); stale-epoch fetches are
///     refused; a same-epoch subscriber *ahead* of the primary is data loss;
///   * fork placement: a subscriber whose log crosses a promotion fork is
///     re-seeded, one inside the common prefix is streamed;
///   * promote: the new epoch is durable in the follower's replmeta, writes
///     open up;
///   * a follower that falls below the GC horizon after Open goes kLost,
///     keeps the server it handed out, and re-seeds when reopened;
///   * the GC retention pin: Checkpoint() keeps WAL files a subscriber still
///     needs, and collects them once the subscriber is dropped.

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

namespace kbt::repl {
namespace {

Knowledgebase InitialKb() {
  return *MakeSingletonKb({{"P", 1}, {"Q", 1}}, {{"P", {{"a"}}}});
}

/// A primary (durable serve::Server + Primary + NetServer frame loop) over a
/// fault-injection env, plus a pipe-based connect factory for followers. The
/// follower lives in the harness too so teardown order is right: follower
/// first (closing its pinned pipe), then the serving threads join.
class ReplHarness {
 public:
  explicit ReplHarness(PrimaryOptions popts = PrimaryOptions()) {
    store::StoreOptions sopts;
    sopts.env = &penv_;
    auto server = serve::Server::OpenDurable("primary", InitialKb(), sopts);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    pserver_ = std::move(*server);
    auto primary = Primary::Attach(pserver_.get(), popts);
    EXPECT_TRUE(primary.ok()) << primary.status().ToString();
    primary_ = std::move(*primary);
    net::NetServerOptions nopts;
    nopts.repl = primary_.get();
    net_ = std::make_unique<net::NetServer>(pserver_.get(), nopts);
  }

  ~ReplHarness() {
    follower.reset();
    for (auto& t : server_ends_) t->Shutdown();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
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
    fopts.redirect_hint = "primary.example:7777";
    return fopts;
  }

  void OpenFollower(const std::string& dir = "replica") {
    auto opened = Follower::Open(MakeFollowerOptions(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    follower = std::move(*opened);
  }

  /// Drives PollOnce until the follower has applied `lsn` (bounded).
  void CatchUp(uint64_t lsn) {
    for (int i = 0; i < 300 && follower->applied_lsn() < lsn; ++i) {
      Status s = follower->PollOnce();
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    ASSERT_EQ(follower->applied_lsn(), lsn);
  }

  StatusOr<std::unique_ptr<net::Transport>> Connect() {
    auto [client_end, server_end] = net::MakePipePair();
    std::shared_ptr<net::Transport> shared = std::move(server_end);
    server_ends_.push_back(shared);
    threads_.emplace_back(
        [this, shared] { net_->ServeConnection(*shared); });
    return std::unique_ptr<net::Transport>(std::move(client_end));
  }

  serve::Server& pserver() { return *pserver_; }
  Primary& primary() { return *primary_; }
  store::FaultInjectionEnv& penv() { return penv_; }
  store::FaultInjectionEnv& fenv() { return fenv_; }

  std::unique_ptr<Follower> follower;

 private:
  store::FaultInjectionEnv penv_;
  store::FaultInjectionEnv fenv_;
  std::unique_ptr<serve::Server> pserver_;
  std::unique_ptr<Primary> primary_;
  std::unique_ptr<net::NetServer> net_;
  std::vector<std::shared_ptr<net::Transport>> server_ends_;
  std::vector<std::thread> threads_;
};

// --- Epoch-history meta file ------------------------------------------------

TEST(ReplMetaTest, RoundtripAndEpoch) {
  ReplMeta meta;
  EXPECT_EQ(meta.epoch(), 0u);
  meta.history = {{1, 0}, {2, 17}, {5, 40}};
  EXPECT_EQ(meta.epoch(), 5u);

  std::string bytes = EncodeReplMeta(meta);
  auto decoded = DecodeReplMeta(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, meta);
}

TEST(ReplMetaTest, EveryDefectIsDataLoss) {
  ReplMeta meta;
  meta.history = {{1, 0}, {2, 3}};
  std::string good = EncodeReplMeta(meta);

  // Flipping any byte must be detected (magic, version, CRC or payload).
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] ^= 0x40;
    auto decoded = DecodeReplMeta(bad);
    EXPECT_FALSE(decoded.ok()) << "byte " << i << " flip undetected";
  }
  // Truncation at every length.
  for (size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(DecodeReplMeta(good.substr(0, n)).ok()) << "len " << n;
  }
  // Trailing bytes.
  EXPECT_EQ(DecodeReplMeta(good + "x").status().code(), StatusCode::kDataLoss);
  // Non-increasing epochs: structurally invalid lineage.
  ReplMeta dup;
  dup.history = {{2, 0}, {2, 5}};
  EXPECT_EQ(DecodeReplMeta(EncodeReplMeta(dup)).status().code(),
            StatusCode::kDataLoss);
}

TEST(ReplMetaTest, FileRoundtripAndAbsence) {
  store::FaultInjectionEnv env;
  ASSERT_TRUE(env.CreateDir("d").ok());
  EXPECT_EQ(ReadReplMeta(&env, "d").status().code(), StatusCode::kNotFound);

  ReplMeta meta;
  meta.history = {{1, 0}, {3, 9}};
  ASSERT_TRUE(WriteReplMeta(&env, "d", meta).ok());
  auto read = ReadReplMeta(&env, "d");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, meta);
}

// --- Seeding + streaming ----------------------------------------------------

TEST(ReplTest, FreshFollowerSeedsFromCheckpointThenStreams) {
  ReplHarness h;
  ASSERT_TRUE(h.pserver().Apply("tau{P(b)}").ok());
  ASSERT_TRUE(h.pserver().Apply("tau{Q(c)}").ok());

  // A fresh follower (empty dir) is always seeded by checkpoint, then pulls
  // the records the checkpoint predates.
  h.OpenFollower();
  h.CatchUp(2);
  EXPECT_EQ(h.follower->stats().snapshot_installs, 1u);
  EXPECT_EQ(h.follower->epoch(), 1u);
  EXPECT_EQ(h.follower->state(), FollowerState::kIdle);  // PollOnce-driven.

  // Identity: the replicated state equals the primary's (the same schema
  // and world set), not just "the same answers".
  EXPECT_EQ(h.follower->server()->store()->kb(),
            h.pserver().store()->kb());

  // Replica reads serve the caught-up snapshot.
  auto session = h.follower->server()->StartSession();
  auto r = session->Holds("Q(c)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->holds);

  // New commits flow through.
  ASSERT_TRUE(h.pserver().Apply("tau{P(d)}").ok());
  h.CatchUp(3);
  EXPECT_EQ(h.follower->server()->store()->kb(),
            h.pserver().store()->kb());
}

TEST(ReplTest, FollowerIsReadOnlyWithRedirect) {
  ReplHarness h;
  h.OpenFollower();
  auto v = h.follower->server()->Apply("tau{P(x)}");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kReadOnly);
  EXPECT_NE(v.status().ToString().find("primary.example:7777"),
            std::string::npos)
      << v.status().ToString();
}

TEST(ReplTest, CatchUpFromDiskOncePastTheFeed) {
  PrimaryOptions popts;
  popts.feed_capacity = 2;
  ReplHarness h(popts);
  h.OpenFollower();  // Seeded at lsn 0.
  ASSERT_EQ(h.follower->applied_lsn(), 0u);

  // Six commits: the two-slot feed forgets the first four, so catch-up must
  // come from the primary's own wal files.
  const char* exprs[] = {"tau{P(b)}", "tau{P(c)}", "tau{Q(d)}",
                         "tau{Q(e)}", "tau{P(f)}", "tau{Q(g)}"};
  for (const char* e : exprs) ASSERT_TRUE(h.pserver().Apply(e).ok());

  h.CatchUp(6);
  EXPECT_EQ(h.follower->stats().snapshot_installs, 1u);  // No re-seed needed.
  EXPECT_EQ(h.follower->server()->store()->kb(),
            h.pserver().store()->kb());
}

// --- Semi-sync ---------------------------------------------------------------

TEST(ReplTest, SemiSyncAckedByPullingFollower) {
  PrimaryOptions popts;
  popts.semi_sync = true;
  popts.semi_sync_timeout_ms = 10'000;
  ReplHarness h(popts);
  h.OpenFollower();

  // Apply blocks until the follower's next fetch acks the lsn; pull on this
  // thread while the apply waits on another.
  StatusOr<uint64_t> version = 0;
  std::thread applier(
      [&] { version = h.pserver().Apply("tau{P(b)}"); });
  for (int i = 0; i < 300 && h.follower->stats().primary_lsn < 1; ++i) {
    ASSERT_TRUE(h.follower->PollOnce().ok());
  }
  // Keep polling until the ack (the fetch *after* the apply) lands.
  for (int i = 0; i < 300 && h.primary().stats().min_acked_lsn < 1; ++i) {
    ASSERT_TRUE(h.follower->PollOnce().ok());
  }
  applier.join();
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(*version, 1u);
  EXPECT_EQ(h.primary().stats().semi_sync_timeouts, 0u);
}

TEST(ReplTest, SemiSyncTimeoutIsDurableLocallyNeverRolledBack) {
  PrimaryOptions popts;
  popts.semi_sync = true;
  popts.semi_sync_timeout_ms = 50;
  ReplHarness h(popts);
  h.OpenFollower();  // Subscribed, but never polls: no acks.

  auto version = h.pserver().Apply("tau{P(b)}");
  ASSERT_FALSE(version.ok());
  EXPECT_EQ(version.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(h.primary().stats().semi_sync_timeouts, 1u);

  // The commit is durable and published regardless — the error means "on no
  // replica yet", not "undone".
  EXPECT_EQ(h.pserver().store()->lsn(), 1u);
  EXPECT_EQ(h.pserver().stats().snapshot_version, 1u);
  h.CatchUp(1);  // And the idle follower can still pick it up afterwards.
  EXPECT_EQ(h.follower->server()->store()->kb(),
            h.pserver().store()->kb());
}

// --- Fencing -----------------------------------------------------------------

TEST(ReplTest, NewerEpochSubscriberDeposesPrimary) {
  ReplHarness h;
  ASSERT_TRUE(h.pserver().Apply("tau{P(b)}").ok());

  net::WireReplSubscribe sub;
  sub.follower_id = "usurper";
  sub.epoch = 2;
  sub.start_lsn = 1;
  sub.has_state = 1;
  auto reply = h.primary().HandleSubscribe(sub);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kFenced);

  // Deposed: fenced flag up, writes refused, replication refused — forever.
  EXPECT_TRUE(h.primary().fenced());
  auto v = h.pserver().Apply("tau{P(c)}");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kReadOnly);

  net::WireReplFetch fetch;
  fetch.follower_id = "replica";
  fetch.epoch = 1;
  fetch.after_lsn = 0;
  auto records = h.primary().HandleFetch(fetch, nullptr);
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kFenced);
  EXPECT_GE(h.primary().stats().fenced_refusals, 1u);
}

TEST(ReplTest, StaleEpochFetchIsFenced) {
  ReplHarness h;
  net::WireReplFetch fetch;
  fetch.follower_id = "old";
  fetch.epoch = 0;  // Below the primary's epoch 1.
  auto records = h.primary().HandleFetch(fetch, nullptr);
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kFenced);
  EXPECT_FALSE(h.primary().fenced());  // Refusing a stale peer ≠ deposed.
}

TEST(ReplTest, SameEpochAheadOfPrimaryIsDataLoss) {
  ReplHarness h;
  ASSERT_TRUE(h.pserver().Apply("tau{P(b)}").ok());  // Primary at lsn 1.

  net::WireReplSubscribe sub;
  sub.follower_id = "ahead";
  sub.epoch = 1;
  sub.start_lsn = 5;  // Claims commits this primary never made.
  sub.has_state = 1;
  auto reply = h.primary().HandleSubscribe(sub);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDataLoss);
}

TEST(ReplTest, ForkPlacementDecidesStreamVersusReseed) {
  // A store that lived through a promotion: epoch 1 from lsn 0, epoch 2 from
  // lsn 3. Subscribers are judged against that lineage.
  store::FaultInjectionEnv env;
  store::StoreOptions sopts;
  sopts.env = &env;
  auto server = serve::Server::OpenDurable("primary", InitialKb(), sopts);
  ASSERT_TRUE(server.ok());
  for (const char* e : {"tau{P(b)}", "tau{P(c)}", "tau{Q(d)}"}) {
    ASSERT_TRUE((*server)->Apply(e).ok());
  }
  ReplMeta meta;
  meta.history = {{1, 0}, {2, 3}};
  ASSERT_TRUE(WriteReplMeta(&env, "primary", meta).ok());
  auto primary = Primary::Attach(server->get(), PrimaryOptions());
  ASSERT_TRUE(primary.ok());
  EXPECT_EQ((*primary)->epoch(), 2u);

  // An epoch-1 subscriber inside the common prefix (lsn 2 ≤ fork 3) streams.
  net::WireReplSubscribe sub;
  sub.follower_id = "prefix";
  sub.epoch = 1;
  sub.start_lsn = 2;
  sub.has_state = 1;
  auto reply = (*primary)->HandleSubscribe(sub);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->need_snapshot, 0);
  EXPECT_EQ(reply->epoch, 2u);

  // One past the fork (lsn 5 > 3) holds records this lineage never adopted:
  // re-seed, never "catch up" across the fork.
  sub.follower_id = "forked";
  sub.start_lsn = 5;
  reply = (*primary)->HandleSubscribe(sub);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->need_snapshot, 1);
  EXPECT_GE((*primary)->stats().snapshot_seeds, 1u);
}

// --- Promote -----------------------------------------------------------------

TEST(ReplTest, PromotePersistsEpochThenOpensWrites) {
  ReplHarness h;
  ASSERT_TRUE(h.pserver().Apply("tau{P(b)}").ok());
  ASSERT_TRUE(h.pserver().Apply("tau{P(c)}").ok());
  h.OpenFollower();
  h.CatchUp(2);

  auto epoch = h.follower->Promote();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 2u);
  EXPECT_EQ(h.follower->state(), FollowerState::kPromoted);

  // The fork point is durable: (epoch 2, start 2) appended to the lineage.
  auto meta = ReadReplMeta(&h.fenv(), "replica");
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  ASSERT_FALSE(meta->history.empty());
  EXPECT_EQ(meta->history.back(), (std::pair<uint64_t, uint64_t>{2, 2}));

  // And writes are open.
  EXPECT_FALSE(h.follower->server()->read_only());
  auto v = h.follower->server()->Apply("tau{Q(z)}");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
}

// --- Mid-life re-seed (falling below the GC horizon) -------------------------

TEST(ReplTest, MidLifeReseedIsTerminalAndServerStaysPut) {
  ReplHarness h;
  ASSERT_TRUE(h.pserver().Apply("tau{P(b)}").ok());
  h.OpenFollower();  // Default options.
  h.CatchUp(1);
  serve::Server* before = h.follower->server();
  const uint64_t version = before->stats().snapshot_version;

  // The primary moves on and garbage-collects the log the follower needs
  // (its pin must be released first — a dead follower is dropped).
  for (const char* e : {"tau{P(c)}", "tau{Q(d)}"}) {
    ASSERT_TRUE(h.pserver().Apply(e).ok());
  }
  h.primary().DropSubscriber("replica");
  ASSERT_TRUE(h.pserver().Checkpoint().ok());
  ASSERT_FALSE(h.penv().FileExists("primary/wal-0"));

  // Catch-up now needs a fresh checkpoint, which only Open installs: the
  // follower goes kLost, asking to be restarted.
  Status s = Status::OK();
  for (int i = 0; i < 300 && s.ok() &&
                  h.follower->state() != FollowerState::kLost;
       ++i) {
    s = h.follower->PollOnce();
  }
  EXPECT_EQ(h.follower->state(), FollowerState::kLost);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_EQ(h.follower->applied_lsn(), 1u);  // Nothing half-applied.

  // The server a caller held is the follower's server still, and it answers
  // at the last applied version.
  ASSERT_EQ(h.follower->server(), before);
  {
    auto session = before->StartSession();
    auto applied = session->Holds("P(b)");
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_TRUE(applied->holds);
    EXPECT_EQ(applied->snapshot_version, version);
    auto missed = session->Holds("Q(d)");
    ASSERT_TRUE(missed.ok()) << missed.status().ToString();
    EXPECT_FALSE(missed->holds);
  }

  // Restarting the follower over the same directory re-seeds it.
  h.follower.reset();
  h.OpenFollower();
  EXPECT_EQ(h.follower->stats().snapshot_installs, 1u);
  EXPECT_EQ(h.follower->applied_lsn(), 3u);
  EXPECT_EQ(h.follower->server()->store()->kb(),
            h.pserver().store()->kb());
}

// --- GC retention pin --------------------------------------------------------

TEST(ReplTest, CheckpointRetainsWalFilesASubscriberStillNeeds) {
  ReplHarness h;

  // A subscriber parked at lsn 0 (subscribed, never acked past it).
  net::WireReplSubscribe sub;
  sub.follower_id = "slow";
  sub.epoch = 1;
  sub.start_lsn = 0;
  sub.has_state = 1;
  ASSERT_TRUE(h.primary().HandleSubscribe(sub).ok());

  ASSERT_TRUE(h.pserver().Apply("tau{P(b)}").ok());
  ASSERT_TRUE(h.pserver().Apply("tau{P(c)}").ok());
  ASSERT_TRUE(h.pserver().Apply("tau{Q(d)}").ok());

  // Checkpoint at lsn 3 would normally collect wal-0; the pin (min acked
  // lsn = 0) must keep everything needed to serve records after lsn 0.
  ASSERT_TRUE(h.pserver().Checkpoint().ok());
  EXPECT_TRUE(h.penv().FileExists("primary/wal-0"));
  EXPECT_TRUE(h.penv().FileExists("primary/checkpoint-0"));

  // The retained log really serves: a fetch after lsn 0 reads from disk.
  net::WireReplFetch fetch;
  fetch.follower_id = "slow";
  fetch.epoch = 1;
  fetch.after_lsn = 0;
  auto records = h.primary().HandleFetch(fetch, nullptr);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_FALSE(records->records.empty());
  EXPECT_EQ(records->start_lsn, 1u);

  // Dropping the subscriber releases the pin: the next checkpoint collects.
  h.primary().DropSubscriber("slow");
  ASSERT_TRUE(h.pserver().Apply("tau{Q(e)}").ok());
  ASSERT_TRUE(h.pserver().Checkpoint().ok());
  EXPECT_FALSE(h.penv().FileExists("primary/wal-0"));
  EXPECT_FALSE(h.penv().FileExists("primary/checkpoint-0"));
}

}  // namespace
}  // namespace kbt::repl
