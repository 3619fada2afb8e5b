/// \file
/// Tests for DurableEngine: the write-ahead commit protocol (state and log
/// advance together or not at all), recovery on reopen, the three sync modes'
/// durability windows, self-healing after transient I/O errors, checkpoint
/// rotation with garbage collection, and the broken-store terminal state.

#include "store/durable_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "store/fault_env.h"
#include "store/recovery.h"
#include "testutil.h"

namespace kbt::store {
namespace {

/// One member database over testutil::TestSchema with Dom = {a, b, c} (P and Q
/// empty), so τ updates have a fixed active domain.
Knowledgebase InitialKb() {
  Database db(testutil::TestSchema());
  std::vector<Tuple> dom;
  for (const std::string& x : testutil::TestConstants()) {
    dom.push_back(Tuple{Name(x)});
  }
  db = *db.WithRelation("Dom", Relation(1, std::move(dom)));
  return *Knowledgebase::FromDatabases({db});
}

StoreOptions WithEnv(FaultInjectionEnv* env, SyncMode mode = SyncMode::kEveryCommit,
                     size_t interval = 8) {
  StoreOptions options;
  options.env = env;
  options.sync_mode = mode;
  options.group_commit_interval = interval;
  return options;
}

std::unique_ptr<DurableEngine> MustOpen(const std::string& dir,
                                        const Knowledgebase& initial,
                                        StoreOptions options) {
  auto store = DurableEngine::Open(dir, initial, options);
  EXPECT_TRUE(store.ok()) << store.status().message();
  return std::move(*store);
}

TEST(DurableEngineTest, FreshOpenWritesCheckpointZeroAndEmptyWal) {
  FaultInjectionEnv env;
  auto store = MustOpen("db", InitialKb(), WithEnv(&env));
  EXPECT_EQ(store->kb(), InitialKb());
  EXPECT_EQ(store->lsn(), 0u);
  EXPECT_FALSE(store->broken());
  EXPECT_TRUE(env.FileExists("db/checkpoint-0"));
  EXPECT_TRUE(env.FileExists("db/wal-0"));
  EXPECT_FALSE(env.FileExists("db/checkpoint-0.tmp"));
}

TEST(DurableEngineTest, ApplyAdvancesStateAndReopenRecoversIt) {
  FaultInjectionEnv env;
  Knowledgebase after{Schema()};
  {
    auto store = MustOpen("db", InitialKb(), WithEnv(&env));
    auto r1 = store->Apply("tau{ P(a) }");
    ASSERT_TRUE(r1.ok()) << r1.status().message();
    EXPECT_EQ(store->kb(), *r1);
    auto r2 = store->Apply("tau{ Q(a, b) } >> lub");
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(store->lsn(), 2u);
    after = store->kb();
    EXPECT_NE(after, InitialKb());
  }
  // Reopen with a decoy initial state: an existing store must ignore it.
  auto store = MustOpen("db", Knowledgebase(testutil::TestSchema()),
                        WithEnv(&env));
  EXPECT_EQ(store->kb(), after);
  EXPECT_EQ(store->lsn(), 2u);
}

TEST(DurableEngineTest, FailedApplyCommitsNothing) {
  FaultInjectionEnv env;
  auto store = MustOpen("db", InitialKb(), WithEnv(&env));
  EXPECT_FALSE(store->Apply("tau{ ((( }").ok());  // Parse error.
  EXPECT_EQ(store->lsn(), 0u);
  EXPECT_EQ(store->kb(), InitialKb());
  // The WAL holds no record: a reopen after a crash sees the initial state.
  env.Crash();
  env.RecoverFromCrash();
  auto reopened = MustOpen("db", Knowledgebase(testutil::TestSchema()),
                           WithEnv(&env));
  EXPECT_EQ(reopened->kb(), InitialKb());
}

TEST(DurableEngineTest, EachCommitAppendsOneVerbatimRecord) {
  FaultInjectionEnv env;
  auto primary = MustOpen("primary", InitialKb(), WithEnv(&env));
  const std::string expression = "tau{  P(a)|P(b) }>>glb";  // Odd spacing kept.
  ASSERT_TRUE(primary->Apply(expression).ok());
  ASSERT_TRUE(primary->InsertTuples("Q", {{"a", "b"}, {"b", "c"}}).ok());
  ASSERT_TRUE(primary->DeleteTuples("Q", {{"b", "c"}}).ok());

  auto wal_bytes = env.ReadFile("primary/wal-0");
  ASSERT_TRUE(wal_bytes.ok());
  auto wal = ReadWal(*wal_bytes);
  ASSERT_TRUE(wal.ok()) << wal.status().message();
  ASSERT_EQ(wal->records.size(), 3u);
  EXPECT_EQ(wal->records[0].kind, WalRecordKind::kTransform);
  EXPECT_EQ(wal->records[0].payload, expression);
  EXPECT_EQ(wal->records[1].kind, WalRecordKind::kInsert);
  EXPECT_EQ(wal->records[1].payload,
            EncodeTupleDelta("Q", 2, {{"a", "b"}, {"b", "c"}}));
  EXPECT_EQ(wal->records[2].kind, WalRecordKind::kDelete);
  EXPECT_EQ(wal->records[2].payload, EncodeTupleDelta("Q", 2, {{"b", "c"}}));

  // A follower fed the same records through ApplyReplicated ends on the same
  // kb with a byte-identical log.
  auto follower = MustOpen("follower", InitialKb(), WithEnv(&env));
  for (const WalRecord& record : wal->records) {
    ASSERT_TRUE(follower->ApplyReplicated(record).ok());
  }
  EXPECT_EQ(follower->kb(), primary->kb());
  EXPECT_EQ(follower->lsn(), 3u);
  auto follower_bytes = env.ReadFile("follower/wal-0");
  ASSERT_TRUE(follower_bytes.ok());
  EXPECT_EQ(*follower_bytes, *wal_bytes);
}

TEST(DurableEngineTest, TupleDeltasRoundTripThroughCrash) {
  FaultInjectionEnv env;
  Knowledgebase committed{Schema()};
  {
    auto store = MustOpen("db", InitialKb(), WithEnv(&env));
    ASSERT_TRUE(store->InsertTuples("Q", {{"a", "b"}, {"b", "c"}}).ok());
    ASSERT_TRUE(store->InsertTuples("P", {{"a"}}).ok());
    ASSERT_TRUE(store->DeleteTuples("Q", {{"b", "c"}}).ok());
    EXPECT_EQ(store->lsn(), 3u);
    committed = store->kb();
  }
  env.Crash();
  env.RecoverFromCrash();
  auto store = MustOpen("db", Knowledgebase(testutil::TestSchema()),
                        WithEnv(&env));
  EXPECT_EQ(store->kb(), committed);
  EXPECT_EQ(store->lsn(), 3u);
}

TEST(DurableEngineTest, BadDeltasAreRejectedBeforeTheLog) {
  FaultInjectionEnv env;
  auto store = MustOpen("db", InitialKb(), WithEnv(&env));
  Status unknown = store->InsertTuples("NoSuchRel", {{"a"}});
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
  Status bad_arity = store->InsertTuples("Q", {{"a"}});
  EXPECT_EQ(bad_arity.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store->lsn(), 0u);
  EXPECT_EQ(store->kb(), InitialKb());
}

TEST(DurableEngineTest, ManualModeLosesUnsyncedCommitsInACrash) {
  FaultInjectionEnv env;
  {
    auto store = MustOpen("db", InitialKb(), WithEnv(&env, SyncMode::kManual));
    ASSERT_TRUE(store->Apply("tau{ P(a) }").ok());
    ASSERT_TRUE(store->Apply("tau{ P(b) }").ok());
    EXPECT_EQ(store->lsn(), 2u);
    // No Sync: the appends live only in the OS.
  }
  env.Crash();
  env.RecoverFromCrash();
  auto store = MustOpen("db", Knowledgebase(testutil::TestSchema()),
                        WithEnv(&env, SyncMode::kManual));
  EXPECT_EQ(store->kb(), InitialKb());
  EXPECT_EQ(store->lsn(), 0u);
}

TEST(DurableEngineTest, ManualModeSyncIsADurabilityBarrier) {
  FaultInjectionEnv env;
  Knowledgebase after_first{Schema()};
  {
    auto store = MustOpen("db", InitialKb(), WithEnv(&env, SyncMode::kManual));
    ASSERT_TRUE(store->Apply("tau{ P(a) }").ok());
    after_first = store->kb();
    ASSERT_TRUE(store->Sync().ok());
    ASSERT_TRUE(store->Apply("tau{ P(b) }").ok());  // Unsynced; dies below.
  }
  env.Crash();
  env.RecoverFromCrash();
  auto store = MustOpen("db", Knowledgebase(testutil::TestSchema()),
                        WithEnv(&env, SyncMode::kManual));
  EXPECT_EQ(store->kb(), after_first);
  EXPECT_EQ(store->lsn(), 1u);
}

TEST(DurableEngineTest, GroupCommitSyncsAtTheInterval) {
  // Interval 2: commit 1 is in the loss window, commit 2 closes the group.
  for (int commits : {1, 2}) {
    FaultInjectionEnv env;
    Knowledgebase committed{Schema()};
    {
      auto store = MustOpen("db", InitialKb(),
                            WithEnv(&env, SyncMode::kGroupCommit, 2));
      ASSERT_TRUE(store->Apply("tau{ P(a) }").ok());
      if (commits == 2) ASSERT_TRUE(store->Apply("tau{ P(b) }").ok());
      committed = store->kb();
    }
    env.Crash();
    env.RecoverFromCrash();
    auto store = MustOpen("db", Knowledgebase(testutil::TestSchema()),
                          WithEnv(&env, SyncMode::kGroupCommit, 2));
    if (commits == 1) {
      EXPECT_EQ(store->kb(), InitialKb());
      EXPECT_EQ(store->lsn(), 0u);
    } else {
      EXPECT_EQ(store->kb(), committed);
      EXPECT_EQ(store->lsn(), 2u);
    }
  }
}

TEST(DurableEngineTest, TransientAppendFailureSelfHealsAndRetrySucceeds) {
  FaultInjectionEnv env;
  auto store = MustOpen("db", InitialKb(), WithEnv(&env));
  ASSERT_TRUE(store->Apply("tau{ P(a) }").ok());
  Knowledgebase after_first = store->kb();

  // The next WAL append fails outright; the transformation succeeded in
  // memory but must not be acknowledged or retained.
  env.FailAt(1, FaultKind::kFail);
  EXPECT_FALSE(store->Apply("tau{ P(b) }").ok());
  EXPECT_EQ(store->kb(), after_first);
  EXPECT_EQ(store->lsn(), 1u);
  EXPECT_FALSE(store->broken());

  // The retry lands, and a reopen replays exactly both commits.
  ASSERT_TRUE(store->Apply("tau{ P(b) }").ok());
  Knowledgebase committed = store->kb();
  store.reset();
  auto reopened = MustOpen("db", Knowledgebase(testutil::TestSchema()),
                           WithEnv(&env));
  EXPECT_EQ(reopened->kb(), committed);
  EXPECT_EQ(reopened->lsn(), 2u);
}

TEST(DurableEngineTest, ShortWriteIsTruncatedBackOut) {
  FaultInjectionEnv env;
  auto store = MustOpen("db", InitialKb(), WithEnv(&env));
  ASSERT_TRUE(store->Apply("tau{ P(a) }").ok());

  // Half the record's bytes land before the failure: self-heal must cut the
  // torn tail so the next record starts at a clean boundary.
  env.FailAt(1, FaultKind::kShortWrite);
  EXPECT_FALSE(store->Apply("tau{ P(b) }").ok());
  EXPECT_FALSE(store->broken());
  ASSERT_TRUE(store->Apply("tau{ P(c) }").ok());
  Knowledgebase committed = store->kb();
  store.reset();

  auto reopened = MustOpen("db", Knowledgebase(testutil::TestSchema()),
                           WithEnv(&env));
  EXPECT_EQ(reopened->kb(), committed);
  EXPECT_EQ(reopened->lsn(), 2u);
}

TEST(DurableEngineTest, SyncFailureAfterAppendRollsTheRecordBack) {
  FaultInjectionEnv env;
  auto store = MustOpen("db", InitialKb(), WithEnv(&env));
  // Op 1 is the append (succeeds), op 2 the per-commit fsync (fails): the
  // record is whole in the OS but of unknown durability, so it is rolled back.
  env.FailAt(2, FaultKind::kFail);
  EXPECT_FALSE(store->Apply("tau{ P(a) }").ok());
  EXPECT_EQ(store->kb(), InitialKb());
  EXPECT_EQ(store->lsn(), 0u);
  EXPECT_FALSE(store->broken());
  ASSERT_TRUE(store->Apply("tau{ P(a) }").ok());
  EXPECT_EQ(store->lsn(), 1u);
}

TEST(DurableEngineTest, CheckpointRotatesTheLogAndCollectsGarbage) {
  FaultInjectionEnv env;
  auto store = MustOpen("db", InitialKb(), WithEnv(&env));
  ASSERT_TRUE(store->Apply("tau{ P(a) }").ok());
  ASSERT_TRUE(store->Apply("tau{ P(b) }").ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_TRUE(env.FileExists("db/checkpoint-2"));
  EXPECT_TRUE(env.FileExists("db/wal-2"));
  // The superseded generation is gone.
  EXPECT_FALSE(env.FileExists("db/checkpoint-0"));
  EXPECT_FALSE(env.FileExists("db/wal-0"));

  // Commits continue into the fresh log; recovery starts at the checkpoint.
  ASSERT_TRUE(store->Apply("tau{ Q(a, c) } >> lub").ok());
  Knowledgebase committed = store->kb();
  store.reset();
  env.Crash();
  env.RecoverFromCrash();
  auto reopened = MustOpen("db", Knowledgebase(testutil::TestSchema()),
                           WithEnv(&env));
  EXPECT_EQ(reopened->kb(), committed);
  EXPECT_EQ(reopened->lsn(), 3u);
}

TEST(DurableEngineTest, IdleCheckpointKeepsLaterCommitsRecoverable) {
  // A checkpoint with no commits since the last one reuses its own wal-<lsn>
  // name. The rotation must truncate that file, not append a second header
  // that recovery would read as a corrupt tail — which used to silently drop
  // every commit made after the idle checkpoint.
  FaultInjectionEnv env;
  Knowledgebase committed{Schema()};
  {
    auto store = MustOpen("db", InitialKb(), WithEnv(&env));
    ASSERT_TRUE(store->Checkpoint().ok());  // Idle: lsn 0 == checkpoint 0.
    ASSERT_TRUE(store->Checkpoint().ok());  // Still idle; twice for good measure.
    ASSERT_TRUE(store->Apply("tau{ P(a) }").ok());
    committed = store->kb();
  }
  env.Crash();
  env.RecoverFromCrash();
  auto store = MustOpen("db", Knowledgebase(testutil::TestSchema()),
                        WithEnv(&env));
  EXPECT_EQ(store->kb(), committed);
  EXPECT_EQ(store->lsn(), 1u);

  // The same reuse happens when commits *after* a checkpoint are followed by
  // an idle one at the same lsn.
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(store->Apply("tau{ P(b) }").ok());
  committed = store->kb();
  store.reset();
  env.Crash();
  env.RecoverFromCrash();
  auto reopened = MustOpen("db", Knowledgebase(testutil::TestSchema()),
                           WithEnv(&env));
  EXPECT_EQ(reopened->kb(), committed);
  EXPECT_EQ(reopened->lsn(), 2u);
}

TEST(DurableEngineTest, CheckpointAloneMakesManualModeCommitsDurable) {
  FaultInjectionEnv env;
  Knowledgebase committed{Schema()};
  {
    auto store = MustOpen("db", InitialKb(), WithEnv(&env, SyncMode::kManual));
    ASSERT_TRUE(store->Apply("tau{ P(a) }").ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    committed = store->kb();
  }
  env.Crash();
  env.RecoverFromCrash();
  auto store = MustOpen("db", Knowledgebase(testutil::TestSchema()),
                        WithEnv(&env, SyncMode::kManual));
  EXPECT_EQ(store->kb(), committed);
  EXPECT_EQ(store->lsn(), 1u);
}

TEST(DurableEngineTest, BrokenStoreRefusesEverythingUntilReopened) {
  FaultInjectionEnv env;
  auto store = MustOpen("db", InitialKb(), WithEnv(&env));
  ASSERT_TRUE(store->Apply("tau{ P(a) }").ok());
  Knowledgebase committed = store->kb();

  // Crash the env out from under the store: the commit fails AND the
  // self-heal fails, which is the terminal state.
  env.Crash();
  EXPECT_FALSE(store->Apply("tau{ P(b) }").ok());
  EXPECT_TRUE(store->broken());
  env.RecoverFromCrash();

  // Even with the env healthy again, a broken store refuses everything.
  Status apply = store->Apply("tau{ P(b) }").status();
  EXPECT_EQ(apply.code(), StatusCode::kIOError);
  EXPECT_EQ(store->InsertTuples("P", {{"b"}}).code(), StatusCode::kIOError);
  EXPECT_EQ(store->Sync().code(), StatusCode::kIOError);
  EXPECT_EQ(store->Checkpoint().code(), StatusCode::kIOError);
  EXPECT_EQ(store->kb(), committed);  // In-memory state is still readable.
  store.reset();

  // A fresh Open re-runs recovery and the store works again.
  auto reopened = MustOpen("db", Knowledgebase(testutil::TestSchema()),
                           WithEnv(&env));
  EXPECT_EQ(reopened->kb(), committed);
  EXPECT_FALSE(reopened->broken());
  EXPECT_TRUE(reopened->Apply("tau{ P(b) }").ok());
}

TEST(DurableEngineTest, WorksOnTheRealFilesystemToo) {
  std::string dir = ::testing::TempDir() + "kbt_durable_engine_test";
  // A previous run's store would otherwise shadow `initial`.
  if (Env::Default()->FileExists(dir)) {
    auto names = Env::Default()->ListDir(dir);
    ASSERT_TRUE(names.ok());
    for (const std::string& name : *names) {
      ASSERT_TRUE(Env::Default()->RemoveFile(dir + "/" + name).ok());
    }
  }
  Knowledgebase committed{Schema()};
  {
    auto store = MustOpen(dir, InitialKb(), StoreOptions());
    ASSERT_TRUE(store->Apply("tau{ P(a) }").ok());
    ASSERT_TRUE(store->InsertTuples("Q", {{"a", "b"}}).ok());
    committed = store->kb();
  }
  auto store = MustOpen(dir, Knowledgebase(testutil::TestSchema()),
                        StoreOptions());
  EXPECT_EQ(store->kb(), committed);
  EXPECT_EQ(store->lsn(), 2u);
}

}  // namespace
}  // namespace kbt::store
