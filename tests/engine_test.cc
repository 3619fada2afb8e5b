#include "core/engine.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/kbt.h"
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
  // the result the engine commits.
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
// Pipeline durability: canonical rendering + commit-on-apply (the seam the
// durable store and the serving write path rely on).

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

/// In-memory TransformLog that records every commit.
class RecordingLog final : public TransformLog {
 public:
  Status Commit(std::string_view expression,
                const Knowledgebase& result) override {
    commits_.emplace_back(std::string(expression), result);
    return Status::OK();
  }
  const std::vector<std::pair<std::string, Knowledgebase>>& commits() const {
    return commits_;
  }

 private:
  std::vector<std::pair<std::string, Knowledgebase>> commits_;
};

TEST(EngineTest, PipelineApplyCommitsCanonicalRendering) {
  Engine engine;
  RecordingLog log;
  engine.AttachLog(&log);
  Knowledgebase kb = *MakeSingletonKb({{"R", 1}}, {{"R", {{"a"}}}});

  Pipeline pipeline;
  pipeline.Tau("R(b) | R(c)").Glb();
  auto result = engine.Apply(pipeline, kb);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(log.commits().size(), 1u);
  EXPECT_EQ(log.commits()[0].first, pipeline.ToString());
  EXPECT_EQ(log.commits()[0].second, *result);

  // Replaying the committed text reproduces the committed result — what store
  // recovery does with this record.
  auto replayed = engine.Apply(log.commits()[0].first, kb);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, *result);
}

TEST(EngineTest, TextApplyCommitsInputVerbatim) {
  Engine engine;
  RecordingLog log;
  engine.AttachLog(&log);
  Knowledgebase kb = *MakeSingletonKb({{"R", 1}}, {{"R", {{"a"}}}});

  const std::string expression = "tau{  R(b)|R(c) }>>glb";  // Odd spacing kept.
  ASSERT_TRUE(engine.Apply(expression, kb).ok());
  ASSERT_EQ(log.commits().size(), 1u);
  EXPECT_EQ(log.commits()[0].first, expression);
}

TEST(EngineTest, EachApplyOverloadCommitsExactlyOnce) {
  Engine engine;
  RecordingLog log;
  engine.AttachLog(&log);
  Knowledgebase kb = *MakeSingletonKb({{"R", 1}}, {{"R", {{"a"}}}});

  ASSERT_TRUE(engine.Apply("tau{ R(b) }", kb).ok());
  EXPECT_EQ(log.commits().size(), 1u);
  Pipeline pipeline;
  pipeline.Tau("R(c)");
  ASSERT_TRUE(engine.Apply(pipeline, kb).ok());
  EXPECT_EQ(log.commits().size(), 2u);
  ASSERT_TRUE(engine.Insert("R(d)", kb).ok());  // Insert goes via the pipeline
  EXPECT_EQ(log.commits().size(), 3u);          // overload: still one commit.
}

}  // namespace
}  // namespace kbt
