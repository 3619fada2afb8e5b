/// \file
/// Crash-recovery tests, in three tiers:
///
///  1. RecoverStore unit tests: checkpoint selection (newest valid wins, the
///     lsn in the file name must match the header), WAL suffix replay, the
///     tolerated crash leftovers (missing wal, shorter-than-header wal, torn
///     durable tail), and the fatal ones (start_lsn mismatch, all checkpoints
///     corrupt).
///  2. The crash matrix: a fixed workload runs against a DurableEngine over
///     the fault-injection env; for each crash flavor × each write-side
///     syscall index, the env "crashes" there, the store is recovered, and the
///     recovered knowledgebase must be bit-identical to the state after some
///     acknowledged prefix of the workload (k or k+1 commits — the +1 is the
///     commit whose fsync landed but whose acknowledgment the crash ate).
///  3. Stability: workloads modeled on the examples/ programs committed
///     through a DurableEngine reopen — before and after a checkpoint — to an
///     equal knowledgebase: the same schema and the same canonical world set.

#include "store/recovery.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/kbt.h"
#include "store/checkpoint.h"
#include "store/durable_engine.h"
#include "store/fault_env.h"

namespace kbt::store {
namespace {

StoreOptions WithEnv(FaultInjectionEnv* env) {
  StoreOptions options;
  options.env = env;
  return options;
}

Knowledgebase FlightKb() {
  return *MakeSingletonKb({{"R1", 2}}, {{"R1",
                                         {{"toronto", "ottawa"},
                                          {"ottawa", "montreal"},
                                          {"montreal", "quebec"},
                                          {"halifax", "toronto"}}}});
}

/// Writes a WAL holding `records` as `path` with the given start_lsn, synced.
void WriteWalFile(FaultInjectionEnv* env, const std::string& path,
                  uint64_t start_lsn, const std::vector<WalRecord>& records) {
  auto file = env->NewAppendableFile(path);
  ASSERT_TRUE(file.ok());
  auto writer = WalWriter::Create(std::move(*file), 0, start_lsn);
  ASSERT_TRUE(writer.ok());
  for (const WalRecord& r : records) ASSERT_TRUE((*writer)->Append(r).ok());
  ASSERT_TRUE((*writer)->Sync().ok());
  ASSERT_TRUE((*writer)->Close().ok());
}

/// Overwrites `path` with `image`, synced.
void OverwriteFile(FaultInjectionEnv* env, const std::string& path,
                   const std::string& image) {
  auto file = env->NewTruncatedFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(image).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());
}

TEST(StoreFileNameTest, RoundTripsAndRejectsJunk) {
  EXPECT_EQ(CheckpointFileName(0), "checkpoint-0");
  EXPECT_EQ(WalFileName(17), "wal-17");
  EXPECT_EQ(ParseStoreLsnSuffix("checkpoint-12", "checkpoint"), 12u);
  EXPECT_EQ(ParseStoreLsnSuffix("wal-0", "wal"), 0u);
  EXPECT_EQ(ParseStoreLsnSuffix("wal-12", "checkpoint"), std::nullopt);
  EXPECT_EQ(ParseStoreLsnSuffix("checkpoint-", "checkpoint"), std::nullopt);
  EXPECT_EQ(ParseStoreLsnSuffix("checkpoint-12x", "checkpoint"), std::nullopt);
  EXPECT_EQ(ParseStoreLsnSuffix("checkpoint-12.tmp", "checkpoint"),
            std::nullopt);
  EXPECT_EQ(ParseStoreLsnSuffix("checkpoint", "checkpoint"), std::nullopt);
}

TEST(RecoverStoreTest, EmptyDirectoryIsNotFound) {
  FaultInjectionEnv env;
  ASSERT_TRUE(env.CreateDir("db").ok());
  Engine engine;
  auto recovered = RecoverStore(&env, "db", engine);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
}

TEST(RecoverStoreTest, CheckpointWithoutWalIsTheWholeState) {
  FaultInjectionEnv env;
  ASSERT_TRUE(env.CreateDir("db").ok());
  Knowledgebase kb = FlightKb();
  ASSERT_TRUE(WriteCheckpoint(&env, "db", "db/checkpoint-3", kb, 3).ok());
  Engine engine;
  auto recovered = RecoverStore(&env, "db", engine);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered->kb, kb);
  EXPECT_EQ(recovered->checkpoint_lsn, 3u);
  EXPECT_EQ(recovered->lsn, 3u);
  EXPECT_FALSE(recovered->wal_exists);
}

TEST(RecoverStoreTest, ReplaysTheWalSuffix) {
  FaultInjectionEnv env;
  ASSERT_TRUE(env.CreateDir("db").ok());
  Knowledgebase kb = FlightKb();
  ASSERT_TRUE(WriteCheckpoint(&env, "db", "db/checkpoint-0", kb, 0).ok());
  WriteWalFile(&env, "db/wal-0", 0,
               {{WalRecordKind::kInsert,
                 EncodeTupleDelta("R1", 2, {{"quebec", "halifax"}})},
                {WalRecordKind::kTransform, "tau{ !R1(toronto, ottawa) }"}});
  Engine engine;
  auto recovered = RecoverStore(&env, "db", engine);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered->lsn, 2u);
  EXPECT_TRUE(recovered->wal_exists);
  EXPECT_EQ(recovered->wal_valid_bytes, recovered->wal_file_size);

  // The replayed state matches an independent in-memory run of the same ops.
  Engine shadow_engine;
  Knowledgebase shadow = kb;
  shadow = *ApplyWalRecord(
      shadow_engine,
      {WalRecordKind::kInsert, EncodeTupleDelta("R1", 2, {{"quebec", "halifax"}})},
      shadow);
  shadow = *shadow_engine.Apply("tau{ !R1(toronto, ottawa) }", shadow);
  EXPECT_EQ(recovered->kb, shadow);
}

TEST(RecoverStoreTest, NewestValidCheckpointWinsOverCorruptNewest) {
  FaultInjectionEnv env;
  ASSERT_TRUE(env.CreateDir("db").ok());
  Knowledgebase kb = FlightKb();
  ASSERT_TRUE(WriteCheckpoint(&env, "db", "db/checkpoint-0", kb, 0).ok());
  WriteWalFile(&env, "db/wal-0", 0,
               {{WalRecordKind::kInsert,
                 EncodeTupleDelta("R1", 2, {{"quebec", "halifax"}})}});
  // A newer checkpoint that a crash corrupted: recovery must skip it and land
  // on checkpoint-0 + wal-0 instead.
  ASSERT_TRUE(WriteCheckpoint(&env, "db", "db/checkpoint-5", kb, 5).ok());
  auto image = env.ReadFile("db/checkpoint-5");
  ASSERT_TRUE(image.ok());
  (*image)[image->size() / 2] ^= 0x01;
  OverwriteFile(&env, "db/checkpoint-5", *image);

  Engine engine;
  auto recovered = RecoverStore(&env, "db", engine);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered->checkpoint_lsn, 0u);
  EXPECT_EQ(recovered->lsn, 1u);
}

TEST(RecoverStoreTest, LsnNameMismatchCountsAsCorruption) {
  FaultInjectionEnv env;
  ASSERT_TRUE(env.CreateDir("db").ok());
  Knowledgebase kb = FlightKb();
  ASSERT_TRUE(WriteCheckpoint(&env, "db", "db/checkpoint-0", kb, 0).ok());
  // File named checkpoint-7 whose header says lsn 3: not trustworthy.
  ASSERT_TRUE(WriteCheckpoint(&env, "db", "db/checkpoint-7", kb, 3).ok());
  Engine engine;
  auto recovered = RecoverStore(&env, "db", engine);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->checkpoint_lsn, 0u);
}

TEST(RecoverStoreTest, AllCheckpointsCorruptIsDataLoss) {
  FaultInjectionEnv env;
  ASSERT_TRUE(env.CreateDir("db").ok());
  ASSERT_TRUE(
      WriteCheckpoint(&env, "db", "db/checkpoint-2", FlightKb(), 2).ok());
  auto image = env.ReadFile("db/checkpoint-2");
  ASSERT_TRUE(image.ok());
  (*image)[0] = 'X';
  OverwriteFile(&env, "db/checkpoint-2", *image);
  Engine engine;
  auto recovered = RecoverStore(&env, "db", engine);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
}

TEST(RecoverStoreTest, WalStartLsnMismatchIsDataLoss) {
  FaultInjectionEnv env;
  ASSERT_TRUE(env.CreateDir("db").ok());
  ASSERT_TRUE(
      WriteCheckpoint(&env, "db", "db/checkpoint-0", FlightKb(), 0).ok());
  WriteWalFile(&env, "db/wal-0", 9, {});  // Header claims a different origin.
  Engine engine;
  auto recovered = RecoverStore(&env, "db", engine);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
}

TEST(RecoverStoreTest, ShorterThanHeaderWalMeansNoCommits) {
  FaultInjectionEnv env;
  ASSERT_TRUE(env.CreateDir("db").ok());
  Knowledgebase kb = FlightKb();
  ASSERT_TRUE(WriteCheckpoint(&env, "db", "db/checkpoint-0", kb, 0).ok());
  // A crash can leave wal-0 existing with 0..15 durable bytes (the dirent
  // became durable, the header bytes did not).
  OverwriteFile(&env, "db/wal-0", "KBTW");
  Engine engine;
  auto recovered = RecoverStore(&env, "db", engine);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered->kb, kb);
  EXPECT_EQ(recovered->lsn, 0u);
  EXPECT_TRUE(recovered->wal_exists);
  EXPECT_EQ(recovered->wal_valid_bytes, 0u);
}

TEST(DurableEngineRecoveryTest, TornDurableTailIsTruncatedOnOpen) {
  FaultInjectionEnv env;
  Knowledgebase committed{Schema()};
  {
    auto store = DurableEngine::Open("db", FlightKb(), WithEnv(&env));
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->InsertTuples("R1", {{"quebec", "halifax"}}).ok());
    committed = (*store)->kb();
  }
  // The OS flushed half of a record the process never acknowledged (a real
  // filesystem may persist un-fsynced bytes): recovery must cut it.
  {
    auto file = env.NewAppendableFile("db/wal-0");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("\x13\x37GARBAGE").ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  auto store = DurableEngine::Open("db", Knowledgebase(Schema()), WithEnv(&env));
  ASSERT_TRUE(store.ok()) << store.status().message();
  EXPECT_EQ((*store)->kb(), committed);
  EXPECT_EQ((*store)->lsn(), 1u);
  // The torn bytes are physically gone and appending resumes cleanly.
  ASSERT_TRUE((*store)->InsertTuples("R1", {{"halifax", "quebec"}}).ok());
  auto image = env.ReadFile("db/wal-0");
  ASSERT_TRUE(image.ok());
  auto contents = ReadWal(*image);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->records.size(), 2u);
  EXPECT_EQ(contents->valid_bytes, image->size());
}

// ---------------------------------------------------------------------------
// The crash matrix.
// ---------------------------------------------------------------------------

struct WorkloadOp {
  enum Kind { kApply, kInsert, kDelete, kCheckpoint } kind;
  std::string expr_or_relation;
  std::vector<std::vector<std::string>> rows;

  bool changes_state() const { return kind != kCheckpoint; }
};

std::vector<WorkloadOp> MatrixWorkload() {
  return {
      {WorkloadOp::kInsert, "R1", {{"quebec", "halifax"}}},
      {WorkloadOp::kApply,
       "tau{ forall x, y, z: (R2(x, y) & R1(y, z)) | R1(x, z) -> R2(x, z) }",
       {}},
      {WorkloadOp::kCheckpoint, "", {}},
      {WorkloadOp::kApply, "tau{ !R1(toronto, ottawa) }", {}},
      {WorkloadOp::kDelete, "R1", {{"ottawa", "montreal"}}},
      {WorkloadOp::kApply, "tau{ R1(montreal, toronto) } >> lub", {}},
  };
}

/// Runs `op` against the store; true on success.
bool RunOp(DurableEngine* store, const WorkloadOp& op) {
  switch (op.kind) {
    case WorkloadOp::kApply:
      return store->Apply(op.expr_or_relation).ok();
    case WorkloadOp::kInsert:
      return store->InsertTuples(op.expr_or_relation, op.rows).ok();
    case WorkloadOp::kDelete:
      return store->DeleteTuples(op.expr_or_relation, op.rows).ok();
    case WorkloadOp::kCheckpoint:
      return store->Checkpoint().ok();
  }
  return false;
}

/// shadow[i] = the knowledgebase after the first i state-changing ops, from an
/// independent in-memory run (the durable store is never compared to itself).
std::vector<Knowledgebase> ShadowStates(const Knowledgebase& initial,
                                        const std::vector<WorkloadOp>& ops) {
  Engine engine;
  std::vector<Knowledgebase> shadow = {initial};
  Knowledgebase kb = initial;
  for (const WorkloadOp& op : ops) {
    switch (op.kind) {
      case WorkloadOp::kApply:
        kb = *engine.Apply(op.expr_or_relation, kb);
        break;
      case WorkloadOp::kInsert:
      case WorkloadOp::kDelete: {
        WalRecord record;
        record.kind = op.kind == WorkloadOp::kInsert ? WalRecordKind::kInsert
                                                     : WalRecordKind::kDelete;
        size_t arity = op.rows.empty() ? 0 : op.rows[0].size();
        record.payload = EncodeTupleDelta(op.expr_or_relation, arity, op.rows);
        kb = *ApplyWalRecord(engine, record, kb);
        break;
      }
      case WorkloadOp::kCheckpoint:
        continue;
    }
    shadow.push_back(kb);
  }
  return shadow;
}

TEST(CrashMatrixTest, EveryCrashPointRecoversToACommittedPrefix) {
  const Knowledgebase initial = FlightKb();
  const std::vector<WorkloadOp> ops = MatrixWorkload();
  const std::vector<Knowledgebase> shadow = ShadowStates(initial, ops);

  size_t cells = 0;
  for (FaultKind kind :
       {FaultKind::kCrashBefore, FaultKind::kCrashAfter, FaultKind::kCrashTorn}) {
    for (uint64_t op_index = 1;; ++op_index) {
      FaultInjectionEnv env;
      env.FailAt(op_index, kind);
      size_t acked = 0;
      {
        auto store = DurableEngine::Open("db", initial, WithEnv(&env));
        if (store.ok()) {
          for (const WorkloadOp& op : ops) {
            bool ok = RunOp(store->get(), op);
            if (ok && op.changes_state()) ++acked;
            if (env.crashed()) break;
          }
        }
      }
      if (!env.crashed()) {
        // The failpoint sits beyond the workload's syscalls: matrix complete.
        EXPECT_EQ(acked, shadow.size() - 1);
        break;
      }
      ++cells;

      env.RecoverFromCrash();
      auto recovered = DurableEngine::Open("db", initial, WithEnv(&env));
      ASSERT_TRUE(recovered.ok())
          << "kind " << static_cast<int>(kind) << " op " << op_index << ": "
          << recovered.status().message();
      // Every acknowledged commit survived; at most one extra commit (whose
      // fsync landed but whose acknowledgment the crash ate) may appear.
      uint64_t lsn = (*recovered)->lsn();
      ASSERT_GE(lsn, acked) << "kind " << static_cast<int>(kind) << " op "
                            << op_index;
      ASSERT_LE(lsn, acked + 1) << "kind " << static_cast<int>(kind) << " op "
                                << op_index;
      ASSERT_LT(lsn, shadow.size());
      // Equal to the shadow run: the same schema and the same world set.
      EXPECT_EQ((*recovered)->kb(), shadow[lsn])
          << "kind " << static_cast<int>(kind) << " op " << op_index;
    }
  }
  // The matrix actually exercised a healthy number of crash points.
  EXPECT_GE(cells, 45u);
}

TEST(CrashMatrixTest, RecoveredStoreAcceptsNewCommits) {
  // A focused follow-up to the matrix: crash at a few representative points,
  // recover, and drive the store forward to the workload's final state.
  const Knowledgebase initial = FlightKb();
  const std::vector<WorkloadOp> ops = MatrixWorkload();
  const std::vector<Knowledgebase> shadow = ShadowStates(initial, ops);

  for (uint64_t op_index : {3u, 11u, 17u, 23u}) {
    FaultInjectionEnv env;
    env.FailAt(op_index, FaultKind::kCrashBefore);
    {
      auto store = DurableEngine::Open("db", initial, WithEnv(&env));
      if (store.ok()) {
        for (const WorkloadOp& op : ops) {
          RunOp(store->get(), op);
          if (env.crashed()) break;
        }
      }
    }
    if (!env.crashed()) continue;
    env.RecoverFromCrash();
    auto recovered = DurableEngine::Open("db", initial, WithEnv(&env));
    ASSERT_TRUE(recovered.ok()) << "op " << op_index;
    uint64_t lsn = (*recovered)->lsn();
    // Re-run every state-changing op past the recovered prefix.
    size_t state_index = 0;
    for (const WorkloadOp& op : ops) {
      if (!op.changes_state()) continue;
      ++state_index;
      if (state_index <= lsn) continue;
      ASSERT_TRUE(RunOp(recovered->get(), op)) << "op " << op_index;
    }
    EXPECT_EQ((*recovered)->kb(), shadow.back()) << "op " << op_index;
  }
}

// ---------------------------------------------------------------------------
// Stability of the examples/ workloads across reopen and checkpoint.
// ---------------------------------------------------------------------------

struct ExampleWorkload {
  std::string name;
  Knowledgebase initial;
  std::vector<std::string> expressions;
};

std::vector<ExampleWorkload> ExampleWorkloads() {
  std::vector<ExampleWorkload> workloads;
  // quickstart.cpp: the §1 flight network — reachability query, then a
  // deletion by denial, committed as transformations.
  workloads.push_back(
      {"quickstart", FlightKb(),
       {"tau{ forall x, y, z: (R2(x, y) & R1(y, z)) | R1(x, z) -> R2(x, z) }",
        "tau{ !R1(toronto, ottawa) }",
        "tau{ forall x, y, z: (R2(x, y) & R1(y, z)) | R1(x, z) -> R2(x, z) } "
        ">> pi[R2]"}});
  // indefinite.cpp: disjunctive alarms make a multi-world kb, probes narrow
  // it, a hypothetical closes with glb.
  workloads.push_back(
      {"indefinite", *MakeSingletonKb({{"Failed", 1}}, {}),
       {"tau{ Failed(web1) | Failed(web2) | Failed(web3) }",
        "tau{ Failed(db1) | Failed(db2) }", "tau{ !Failed(web2) }",
        "tau{ Failed(db1) }", "tau{ Failed(web1) } >> glb"}});
  // robots.cpp: a counterfactual insert joined back with lub.
  workloads.push_back({"robots",
                       *MakeSingletonKb({{"R1", 1}}, {{"R1", {{"u"}}}}),
                       {"tau{ R1(v) } >> lub"}});
  // graph_analysis.cpp (in miniature): a sentence whose consequent marks a
  // global property, projected out.
  workloads.push_back(
      {"graph_analysis",
       *MakeSingletonKb({{"R1", 2}}, {{"R1", {{"a", "b"}, {"b", "c"}}}}),
       {"tau{ (forall x, y: R1(x, y) -> R2(x, y)) -> R4() } >> pi[R4]"}});
  return workloads;
}

TEST(ExamplesByteStabilityTest, CheckpointWalReplayRoundTripIsByteStable) {
  for (const ExampleWorkload& w : ExampleWorkloads()) {
    FaultInjectionEnv env;
    Knowledgebase final_kb;
    {
      auto store = DurableEngine::Open("db", w.initial, WithEnv(&env));
      ASSERT_TRUE(store.ok()) << w.name;
      for (const std::string& expr : w.expressions) {
        auto r = (*store)->Apply(expr);
        ASSERT_TRUE(r.ok()) << w.name << ": " << expr << ": "
                            << r.status().message();
      }
      final_kb = (*store)->kb();
    }
    // Reopen replays checkpoint-0 + the whole WAL.
    {
      auto store = DurableEngine::Open("db", Knowledgebase(Schema()),
                                       WithEnv(&env));
      ASSERT_TRUE(store.ok()) << w.name;
      EXPECT_EQ((*store)->kb(), final_kb) << w.name;
      EXPECT_EQ((*store)->lsn(), w.expressions.size()) << w.name;
      // Roll a checkpoint and reopen again: now recovery loads the snapshot
      // instead of replaying — the state must not move.
      ASSERT_TRUE((*store)->Checkpoint().ok()) << w.name;
    }
    {
      auto store = DurableEngine::Open("db", Knowledgebase(Schema()),
                                       WithEnv(&env));
      ASSERT_TRUE(store.ok()) << w.name;
      EXPECT_EQ((*store)->kb(), final_kb) << w.name;
    }
  }
}

}  // namespace
}  // namespace kbt::store
