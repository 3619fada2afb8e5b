#include "core/stratified.h"

#include <gtest/gtest.h>

#include <random>

#include "core/engine.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "datalog/from_fo.h"
#include "datalog/to_fo.h"
#include "logic/printer.h"
#include "testutil.h"

namespace kbt {
namespace {

TEST(ToFirstOrderTest, RuleClosure) {
  datalog::Program p = *datalog::ParseProgram(
      "path(X, Z) :- path(X, Y), edge(Y, Z), X != Z.");
  Formula f = datalog::RuleToFirstOrder(p.rules[0]);
  EXPECT_EQ(ToString(f),
            "forall X, Y, Z: path(X, Y) & edge(Y, Z) & X != Z -> path(X, Z)");
}

TEST(ToFirstOrderTest, NegatedLiteralAndFact) {
  datalog::Program p = *datalog::ParseProgram(
      "iso(X) :- node(X), !edge(X, X). seed(a).");
  EXPECT_EQ(ToString(datalog::RuleToFirstOrder(p.rules[0])),
            "forall X: node(X) & !edge(X, X) -> iso(X)");
  EXPECT_EQ(ToString(datalog::RuleToFirstOrder(p.rules[1])), "seed(a)");
  EXPECT_FALSE(datalog::ToFirstOrder(datalog::Program{}).ok());
}

TEST(ToFirstOrderTest, RoundTripThroughFromFirstOrder) {
  // Positive programs survive Program -> FO -> Program.
  datalog::Program p = *datalog::ParseProgram(
      "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z).");
  Formula f = *datalog::ToFirstOrder(p);
  auto back = *datalog::FromFirstOrder(f);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->ToString(), p.ToString());
}

TEST(InsertStratifiedTest, MatchesBottomUpEvaluation) {
  datalog::Program program = *datalog::ParseProgram(R"(
    reach(Y) :- start(X), edge(X, Y).
    reach(Y) :- reach(X), edge(X, Y).
    unreachable(X) :- node(X), !reach(X), !start(X).
  )");
  std::mt19937_64 rng(555);
  for (int trial = 0; trial < 5; ++trial) {
    testutil::Graph g = testutil::RandomGraph(5, 0.3, &rng);
    std::vector<Tuple> nodes;
    for (int i = 0; i < g.n; ++i) {
      nodes.push_back(Tuple{Name(testutil::VertexName(i))});
    }
    Database db = *Database::Create(
        *Schema::Of({{"node", 1}, {"start", 1}, {"edge", 2}}),
        {Relation(1, std::move(nodes)),
         Relation(1, {Tuple{Name(testutil::VertexName(0))}}),
         testutil::EdgeRelation(g)});

    // The paper's claim: sequential τ per stratum == iterated fixpoint.
    Knowledgebase via_tau =
        *InsertStratified(program, Knowledgebase::Singleton(db));
    ASSERT_EQ(via_tau.size(), 1u);
    Database expected = *datalog::Evaluate(program, db);
    // Align column order before comparing.
    std::vector<Symbol> order;
    for (const RelationDecl& d : via_tau.schema().decls()) {
      order.push_back(d.symbol);
    }
    EXPECT_EQ(via_tau.World(0), *expected.ProjectTo(order))
        << "graph edges: " << testutil::EdgeRelation(g).ToString();
  }
}

TEST(InsertStratifiedTest, PurePositiveProgramUsesOneStratum) {
  datalog::Program tc = *datalog::ParseProgram(
      "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z).");
  Knowledgebase kb = *MakeSingletonKb({{"edge", 2}},
                                      {{"edge", {{"a", "b"}, {"b", "c"}}}});
  Knowledgebase out = *InsertStratified(tc, kb);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(*out.World(0).RelationFor("path"),
            MakeRelation(2, {{"a", "b"}, {"b", "c"}, {"a", "c"}}));
}

TEST(InsertStratifiedTest, RejectsUnstratifiableAndUnsafe) {
  Knowledgebase kb = *MakeSingletonKb({{"n", 1}}, {{"n", {{"a"}}}});
  datalog::Program cyclic =
      *datalog::ParseProgram("p(X) :- n(X), !q(X). q(X) :- n(X), !p(X).");
  EXPECT_FALSE(InsertStratified(cyclic, kb).ok());
  datalog::Program unsafe = *datalog::ParseProgram("p(X).");
  EXPECT_FALSE(InsertStratified(unsafe, kb).ok());
}

TEST(InsertStratifiedTest, RejectsStoredHeadPredicates) {
  Knowledgebase kb = *MakeSingletonKb({{"p", 1}}, {{"p", {{"a"}}}});
  datalog::Program program = *datalog::ParseProgram("p(X) :- p(X).");
  EXPECT_EQ(InsertStratified(program, kb).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace kbt
