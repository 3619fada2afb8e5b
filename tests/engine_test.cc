#include "core/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/kbt.h"
#include "store/durable_engine.h"
#include "store/fault_env.h"
#include "store/wal.h"
#include "testutil.h"

namespace kbt {
namespace {

TEST(EngineTest, QuickstartTransitiveClosure) {
  // The README quickstart: reachable cities via Example 1's sentence.
  Engine engine;
  Knowledgebase kb = *MakeSingletonKb(
      {{"R1", 2}}, {{"R1", {{"tor", "ott"}, {"ott", "mtl"}, {"mtl", "qbc"}}}});
  Knowledgebase out = *engine.Apply(
      "tau{ forall x, y, z: (R2(x, y) & R1(y, z)) | R1(x, z) -> R2(x, z) } "
      ">> pi[R2]",
      kb);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(*out.World(0).RelationFor("R2"),
            MakeRelation(2, {{"tor", "ott"},
                             {"tor", "mtl"},
                             {"tor", "qbc"},
                             {"ott", "mtl"},
                             {"ott", "qbc"},
                             {"mtl", "qbc"}}));
}

TEST(EngineTest, InsertShorthand) {
  Engine engine;
  Knowledgebase kb = *MakeSingletonKb({{"R1", 2}}, {{"R1", {{"tor", "ott"}}}});
  Knowledgebase out = *engine.Insert("!R1(tor, ott)", kb);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.World(0).RelationFor("R1")->empty());
}

TEST(EngineTest, ParseErrorsPropagate) {
  Engine engine;
  Knowledgebase kb = *MakeSingletonKb({{"R1", 2}}, {});
  EXPECT_EQ(engine.Apply("tau{ ((( }", kb).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(engine.Insert("R1(a", kb).status().code(), StatusCode::kParseError);
}

TEST(EngineTest, TraceCollection) {
  // The engine keeps no trace; a caller traces an engine expression by parsing
  // it and applying the pipeline with PipelineStats. Tracing must not change
  // the result the engine returns.
  Engine engine;
  Knowledgebase kb = *MakeSingletonKb({{"R", 1}}, {{"R", {{"a"}}}});
  const char* expression = "tau{ R(b) } >> lub";
  Knowledgebase applied = *engine.Apply(expression, kb);
  PipelineStats stats;
  Knowledgebase traced = *ParsePipeline(expression)->Apply(kb, MuOptions(), &stats);
  EXPECT_EQ(traced, applied);
  ASSERT_EQ(stats.steps.size(), 2u);
  EXPECT_EQ(stats.steps[0].step, "tau{ R(b) }");
}

TEST(EngineTest, OptionsControlStrategy) {
  EngineOptions options;
  options.mu.strategy = MuStrategy::kDatalog;
  Engine engine(options);
  Knowledgebase kb = *MakeSingletonKb({{"R", 1}}, {{"R", {{"a"}}}});
  // Not Horn: the forced strategy must surface as an error.
  EXPECT_EQ(engine.Insert("forall x: R(x) -> !S(x)", kb).status().code(),
            StatusCode::kUnsupported);
}

TEST(EngineTest, MakeHelpersValidate) {
  EXPECT_FALSE(MakeDatabase({{"R", 1}, {"R", 1}}, {}).ok());  // Dup symbol.
  EXPECT_TRUE(MakeDatabase({{"R", 1}}, {{"R", {{"a"}}}}).ok());
  EXPECT_EQ(MakeRelation(2, {{"a", "b"}}).size(), 1u);
}

// ---------------------------------------------------------------------------
// Pipeline rendering: a pre-built pipeline is made durable by applying its
// canonical rendering as text (the store logs text records).

/// Property: Pipeline::ToString round-trips through ParsePipeline — the
/// rendering is a fixpoint of the printer, and applying original and reparse
/// to the same kb yields identical knowledgebases. Covers every step kind with
/// random sentences.
TEST(EngineTest, PipelineToStringRoundTripsThroughParsePipeline) {
  std::mt19937_64 rng(88);
  testutil::RandomSentenceGenerator gen(&rng);
  std::uniform_int_distribution<int> steps(1, 4);
  std::uniform_int_distribution<int> kind(0, 4);

  for (int round = 0; round < 25; ++round) {
    Pipeline pipeline;
    int n = steps(rng);
    for (int i = 0; i < n; ++i) {
      switch (kind(rng)) {
        case 0:
          pipeline.Tau(gen.Generate(2));
          break;
        case 1:
          pipeline.Glb();
          break;
        case 2:
          pipeline.Lub();
          break;
        case 3:
          pipeline.Project(std::vector<std::string>{"P", "Q"});
          break;
        default:
          pipeline.Filter(gen.Generate(2));
          break;
      }
    }
    const std::string rendered = pipeline.ToString();
    auto reparsed = ParsePipeline(rendered);
    ASSERT_TRUE(reparsed.ok()) << rendered << ": "
                               << reparsed.status().message();
    EXPECT_EQ(reparsed->ToString(), rendered);  // Printer fixpoint.

    Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
    auto original_result = pipeline.Apply(kb);
    auto reparsed_result = reparsed->Apply(kb);
    ASSERT_EQ(original_result.ok(), reparsed_result.ok()) << rendered;
    if (original_result.ok()) {
      EXPECT_EQ(*original_result, *reparsed_result) << rendered;
    }
  }
}

// ---------------------------------------------------------------------------
// Commits: an engine expression becomes durable through a store::DurableEngine,
// whose commit listener sees every record it appends to its WAL.

/// A store over an in-memory env whose listener records every commit.
class RecordingStore {
 public:
  explicit RecordingStore(const Knowledgebase& initial) {
    store::StoreOptions options;
    options.env = &env_;
    auto opened = store::DurableEngine::Open("db", initial, options);
    EXPECT_TRUE(opened.ok()) << opened.status().message();
    store_ = std::move(*opened);
    store_->SetCommitListener(
        [this](uint64_t lsn, const store::WalRecord& record) {
          commits_.emplace_back(lsn, record);
        });
  }
  store::DurableEngine& store() { return *store_; }
  const std::vector<std::pair<uint64_t, store::WalRecord>>& commits() const {
    return commits_;
  }
  /// The records the store's WAL holds on disk.
  std::vector<store::WalRecord> WalRecords() {
    auto bytes = env_.ReadFile("db/wal-0");
    EXPECT_TRUE(bytes.ok());
    auto wal = store::ReadWal(bytes.ok() ? *bytes : std::string());
    EXPECT_TRUE(wal.ok()) << wal.status().message();
    return wal.ok() ? wal->records : std::vector<store::WalRecord>();
  }

 private:
  store::FaultInjectionEnv env_;
  std::unique_ptr<store::DurableEngine> store_;
  std::vector<std::pair<uint64_t, store::WalRecord>> commits_;
};

TEST(EngineTest, TextApplyCommitsInputVerbatim) {
  Knowledgebase kb = *MakeSingletonKb({{"R", 1}}, {{"R", {{"a"}}}});
  RecordingStore recording(kb);

  const std::string expression = "tau{  R(b)|R(c) }>>glb";  // Odd spacing kept.
  auto result = recording.store().Apply(expression);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_EQ(recording.commits().size(), 1u);
  EXPECT_EQ(recording.commits()[0].second.kind, store::WalRecordKind::kTransform);
  EXPECT_EQ(recording.commits()[0].second.payload, expression);
  EXPECT_EQ(recording.WalRecords(),
            std::vector<store::WalRecord>{recording.commits()[0].second});

  // Replaying the committed text reproduces the committed result — what store
  // recovery does with this record.
  Engine engine;
  auto replayed = engine.Apply(recording.commits()[0].second.payload, kb);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, *result);
}

TEST(EngineTest, EachApplyOverloadCommitsExactlyOnce) {
  Knowledgebase kb = *MakeSingletonKb({{"R", 1}}, {{"R", {{"a"}}}});
  RecordingStore recording(kb);
  store::DurableEngine& store = recording.store();

  ASSERT_TRUE(store.Apply("tau{ R(b) }").ok());
  EXPECT_EQ(recording.commits().size(), 1u);
  Pipeline pipeline;  // A pre-built pipeline commits as its rendering.
  pipeline.Tau("R(c)");
  ASSERT_TRUE(store.Apply(pipeline.ToString()).ok());
  EXPECT_EQ(recording.commits().size(), 2u);
  ASSERT_TRUE(store.InsertTuples("R", {{"d"}, {"e"}}).ok());
  EXPECT_EQ(recording.commits().size(), 3u);  // Two rows, one commit.
  ASSERT_TRUE(store.DeleteTuples("R", {{"d"}}).ok());
  EXPECT_EQ(recording.commits().size(), 4u);
  EXPECT_FALSE(store.Apply("tau{ ((( }").ok());  // A failed apply: none.
  EXPECT_EQ(recording.commits().size(), 4u);

  // Each commit advanced the lsn by one and is one record in the WAL.
  std::vector<store::WalRecord> listened;
  for (size_t i = 0; i < recording.commits().size(); ++i) {
    EXPECT_EQ(recording.commits()[i].first, i + 1);
    listened.push_back(recording.commits()[i].second);
  }
  EXPECT_EQ(store.lsn(), 4u);
  EXPECT_EQ(recording.WalRecords(), listened);

  // A follower commits each shipped record exactly once too.
  RecordingStore follower(kb);
  for (const store::WalRecord& record : listened) {
    ASSERT_TRUE(follower.store().ApplyReplicated(record).ok());
  }
  EXPECT_EQ(follower.commits().size(), 4u);
  EXPECT_EQ(follower.store().kb(), store.kb());
}

}  // namespace
}  // namespace kbt
