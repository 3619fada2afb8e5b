#include "core/expr.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/expr_parser.h"
#include "core/tau.h"
#include "logic/parser.h"
#include "testutil.h"

namespace kbt {
namespace {

using testutil::KbAsStrings;

TEST(ExprParserTest, ParsesAllStepKinds) {
  auto p = ParsePipeline("tau{ R(a) } >> glb >> lub >> pi[R, S]");
  ASSERT_TRUE(p.ok()) << p.status();
  ASSERT_EQ(p->steps().size(), 4u);
  EXPECT_EQ(p->steps()[0].kind, TransformStep::Kind::kTau);
  EXPECT_EQ(p->steps()[1].kind, TransformStep::Kind::kGlb);
  EXPECT_EQ(p->steps()[2].kind, TransformStep::Kind::kLub);
  EXPECT_EQ(p->steps()[3].kind, TransformStep::Kind::kProject);
  EXPECT_EQ(p->steps()[3].projection.size(), 2u);
}

TEST(ExprParserTest, Synonyms) {
  auto p = ParsePipeline("insert{ R(a) } >> meet >> join >> project[R]");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->steps().size(), 4u);
}

TEST(ExprParserTest, Errors) {
  EXPECT_FALSE(ParsePipeline("").ok());
  EXPECT_FALSE(ParsePipeline("tau{ R(a) } glb").ok());       // Missing '>>'.
  EXPECT_FALSE(ParsePipeline("tau R(a)").ok());               // Missing braces.
  EXPECT_FALSE(ParsePipeline("tau{ R(a) ").ok());             // Unterminated.
  EXPECT_FALSE(ParsePipeline("warp{ R(a) }").ok());           // Unknown step.
  EXPECT_FALSE(ParsePipeline("pi[]").ok());                   // Empty projection.
  EXPECT_FALSE(ParsePipeline("tau{ R( }").ok());              // Bad formula inside.
}

TEST(ExprParserTest, RoundTripThroughToString) {
  Pipeline p = *ParsePipeline(
      "tau{ forall x: R(x) -> S(x) } >> glb >> pi[S]");
  Pipeline p2 = *ParsePipeline(p.ToString());
  EXPECT_EQ(p.ToString(), p2.ToString());
}

TEST(ExprTest, ApplyMatchesManualComposition) {
  Knowledgebase kb = *MakeSingletonKb({{"R", 1}}, {{"R", {{"a"}, {"b"}}}});
  Formula phi = *ParseFormula("forall x: R(x) -> S(x)");
  Pipeline p;
  p.Tau(phi).Glb().Project({"S"});
  Knowledgebase via_pipeline = *p.Apply(kb);
  Knowledgebase manual = *(*Tau(phi, kb)).Glb().ProjectTo({Name("S")});
  EXPECT_EQ(KbAsStrings(via_pipeline), KbAsStrings(manual));
}

TEST(ExprTest, StepsApplyLeftToRight) {
  // τ first, then ⊓ — order matters (Lemma 2.1), so verify the pipeline's
  // application order explicitly on the paper's witness.
  Database d1 = *MakeDatabase({{"R1", 3}}, {{"R1", {{"a1", "a2", "a3"}}}});
  Database d2 = *MakeDatabase({{"R1", 3}}, {{"R1", {{"a1", "a2", "a4"}}}});
  Knowledgebase kb = *Knowledgebase::FromDatabases({d1, d2});
  Knowledgebase out = *(*ParsePipeline(
                            "tau{ forall x1, x2: R1(x1, a2, x2) -> R2(x1) } >> glb"))
                           .Apply(kb);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(*out.World(0).RelationFor("R2"), MakeRelation(1, {{"a1"}}));
}

TEST(ExprTest, DeferredParseErrorSurfacesAtApply) {
  Pipeline p;
  p.Tau("not a formula ((");
  Knowledgebase kb = *MakeSingletonKb({{"R", 1}}, {});
  EXPECT_EQ(p.Apply(kb).status().code(), StatusCode::kParseError);
}

TEST(ExprTest, TraceRecordsSteps) {
  Knowledgebase kb = *MakeSingletonKb({{"R", 1}}, {});
  Pipeline p = *ParsePipeline("tau{ R(a) | R(b) } >> lub");
  PipelineStats stats;
  ASSERT_TRUE(p.Apply(kb, MuOptions(), &stats).ok());
  ASSERT_EQ(stats.steps.size(), 2u);
  EXPECT_EQ(stats.steps[0].step, "tau{ R(a) | R(b) }");
  EXPECT_EQ(stats.steps[0].input_databases, 1u);
  EXPECT_EQ(stats.steps[0].output_databases, 2u);
  EXPECT_EQ(stats.steps[1].output_databases, 1u);
}

TEST(ExprTest, CopyFormulaCopiesRelation) {
  Knowledgebase kb = *MakeSingletonKb({{"R", 2}}, {{"R", {{"a", "b"}, {"b", "c"}}}});
  Knowledgebase out = *Tau(CopyFormula("R", "R4", 2), kb);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(*out.World(0).RelationFor("R4"),
            *out.World(0).RelationFor("R"));
}

TEST(ExprTest, DifferenceFormulaComputesSetDifference) {
  Knowledgebase kb = *MakeSingletonKb(
      {{"A", 1}, {"B", 1}}, {{"A", {{"x"}, {"y"}}}, {"B", {{"y"}}}});
  Knowledgebase out = *Tau(DifferenceFormula("A", "B", "D", 1), kb);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(*out.World(0).RelationFor("D"), MakeRelation(1, {{"x"}}));
}

TEST(ExprTest, FilterKeepsSatisfyingWorlds) {
  // filter{} is the §6-style extension operator: hypothetical selection.
  Knowledgebase kb = *Knowledgebase::FromDatabases(
      {*MakeDatabase({{"P", 1}}, {{"P", {{"a"}}}}),
       *MakeDatabase({{"P", 1}}, {{"P", {{"b"}}}}),
       *MakeDatabase({{"P", 1}}, {{"P", {{"a"}, {"b"}}}})});
  Pipeline p = *ParsePipeline("filter{ P(a) }");
  Knowledgebase out = *p.Apply(kb);
  EXPECT_EQ(out.size(), 2u);
  for (size_t w = 0; w < out.size(); ++w) {
    const Database db = out.World(w);
    EXPECT_TRUE(db.RelationFor("P")->Contains(Tuple{Name("a")}));
  }
  // Filtering everything out yields the empty kb but keeps the schema.
  Knowledgebase none = *(*ParsePipeline("filter{ P(zz) }")).Apply(kb);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.schema(), kb.schema());
}

TEST(ExprTest, FilterVsTauOnIndefiniteKb) {
  // filter is selection (drops worlds); tau is update (repairs worlds).
  Knowledgebase kb = *Knowledgebase::FromDatabases(
      {*MakeDatabase({{"P", 1}}, {{"P", {{"a"}}}}),
       *MakeDatabase({{"P", 1}}, {{"P", {{"b"}}}})});
  Knowledgebase filtered = *(*ParsePipeline("filter{ P(a) }")).Apply(kb);
  Knowledgebase updated = *(*ParsePipeline("tau{ P(a) }")).Apply(kb);
  EXPECT_EQ(filtered.size(), 1u);
  EXPECT_EQ(updated.size(), 2u);
}

TEST(ExprTest, FilterRoundTripsThroughToString) {
  Pipeline p = *ParsePipeline("filter{ P(a) & !P(b) } >> glb");
  EXPECT_EQ((*ParsePipeline(p.ToString())).ToString(), p.ToString());
}

TEST(ExprTest, ProjectionOntoMissingRelationFails) {
  Knowledgebase kb = *MakeSingletonKb({{"R", 1}}, {});
  Pipeline p = *ParsePipeline("pi[Zed]");
  EXPECT_EQ(p.Apply(kb).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace kbt
