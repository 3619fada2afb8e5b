#include <gtest/gtest.h>

#include <random>
#include <unordered_map>
#include <vector>

#include "base/cancel.h"
#include "core/engine.h"
#include "datalog/analysis.h"
#include "datalog/eval.h"
#include "datalog/from_fo.h"
#include "datalog/parser.h"
#include "logic/parser.h"
#include "testutil.h"

namespace kbt::datalog {
namespace {

TEST(DatalogParserTest, FactsRulesConstraintsNegation) {
  auto program = ParseProgram(R"(
    % transitive closure with extras
    edge(a, b).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
    distinct(X, Y) :- node(X), node(Y), X != Y.
    sink(X) :- node(X), !edge(X, X), X = X.
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  ASSERT_EQ(program->rules.size(), 5u);
  EXPECT_TRUE(program->rules[0].body.empty());
  EXPECT_EQ(program->rules[2].body.size(), 2u);
  EXPECT_EQ(program->rules[3].constraints.size(), 1u);
  EXPECT_TRUE(program->rules[3].constraints[0].negated);
  EXPECT_TRUE(program->rules[4].body[1].negated);
  // Uppercase = variable, lowercase = constant.
  EXPECT_TRUE(program->rules[1].head.args[0].is_variable());
  EXPECT_TRUE(program->rules[0].head.args[0].is_constant());
}

TEST(DatalogParserTest, Errors) {
  EXPECT_FALSE(ParseProgram("p(X) :- q(X)").ok());       // Missing final dot.
  EXPECT_FALSE(ParseProgram("p(X) q(X).").ok());          // Missing ':-'.
  EXPECT_FALSE(ParseProgram("p(X) :- X < Y.").ok());      // Unknown operator.
  EXPECT_TRUE(ParseProgram("").ok());                      // Empty program fine.
}

TEST(DatalogAnalysisTest, SafetyViolationsDetected) {
  // Head variable not in body.
  EXPECT_FALSE(CheckSafety(*ParseProgram("p(X, Y) :- q(X).")).ok());
  // Variable only in negated literal.
  EXPECT_FALSE(CheckSafety(*ParseProgram("p(X) :- q(X), !r(Y).")).ok());
  // Variable only in constraint.
  EXPECT_FALSE(CheckSafety(*ParseProgram("p(X) :- q(X), X != Y.")).ok());
  // Fact with variable.
  EXPECT_FALSE(CheckSafety(*ParseProgram("p(X).")).ok());
  EXPECT_TRUE(CheckSafety(*ParseProgram("p(X) :- q(X), !r(X), X != a.")).ok());
}

TEST(DatalogAnalysisTest, ProgramSchemaAndArityConflicts) {
  Schema s = *ProgramSchema(*ParseProgram("p(X) :- q(X, Y)."));
  EXPECT_EQ(*s.ArityOf(Name("p")), 1u);
  EXPECT_EQ(*s.ArityOf(Name("q")), 2u);
  EXPECT_FALSE(ProgramSchema(*ParseProgram("p(X) :- p(X, X).")).ok());
}

TEST(DatalogAnalysisTest, StratificationAcceptsAndOrdersNegation) {
  auto strata = Stratify(*ParseProgram(R"(
    reach(X) :- start(X).
    reach(Y) :- reach(X), edge(X, Y).
    blocked(X) :- node(X), !reach(X).
  )"));
  ASSERT_TRUE(strata.ok());
  ASSERT_EQ(strata->size(), 2u);
  EXPECT_EQ((*strata)[0], std::vector<Symbol>{Name("reach")});
  EXPECT_EQ((*strata)[1], std::vector<Symbol>{Name("blocked")});
}

TEST(DatalogAnalysisTest, CyclicNegationRejected) {
  auto strata = Stratify(*ParseProgram("p(X) :- n(X), !q(X). q(X) :- n(X), !p(X)."));
  EXPECT_EQ(strata.status().code(), StatusCode::kInvalidArgument);
}

Database GraphDb(const testutil::Graph& g) {
  return *Database::Create(*Schema::Of({{"edge", 2}}), {testutil::EdgeRelation(g)});
}

TEST(DatalogEvalTest, TransitiveClosureMatchesWarshall) {
  Program tc = *ParseProgram(
      "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z).");
  std::mt19937_64 rng(1234);
  for (int trial = 0; trial < 10; ++trial) {
    testutil::Graph g = testutil::RandomGraph(7, 0.25, &rng);
    Database out = *Evaluate(tc, GraphDb(g));
    EXPECT_EQ(testutil::DecodeEdges(*out.RelationFor("path")),
              testutil::TransitiveClosure(g.edges, g.n));
    // EDB unchanged.
    EXPECT_EQ(testutil::DecodeEdges(*out.RelationFor("edge")), g.edges);
  }
}

TEST(DatalogEvalTest, SemiNaiveDoesLessRederivation) {
  // A long chain: each round adds only paths not derived before, so the
  // derived count is exactly the closure's size, 24·23/2 = 276.
  testutil::Graph chain;
  chain.n = 24;
  for (int i = 0; i + 1 < chain.n; ++i) chain.edges.insert({i, i + 1});
  Program tc = *ParseProgram(
      "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z).");
  EvalStats stats;
  ASSERT_TRUE(Evaluate(tc, GraphDb(chain), &stats).ok());
  size_t closure = testutil::TransitiveClosure(chain.edges, chain.n).size();
  EXPECT_EQ(closure, 276u);
  EXPECT_EQ(stats.derived_tuples, closure);
}

TEST(DatalogEvalTest, StratifiedNegation) {
  Program p = *ParseProgram(R"(
    reach(Y) :- start(X), edge(X, Y).
    reach(Y) :- reach(X), edge(X, Y).
    unreachable(X) :- node(X), !reach(X), !start(X).
  )");
  Database db = *MakeDatabase(
      {{"node", 1}, {"start", 1}, {"edge", 2}},
      {{"node", {{"a"}, {"b"}, {"c"}, {"d"}}},
       {"start", {{"a"}}},
       {"edge", {{"a", "b"}, {"b", "c"}}}});
  Database out = *Evaluate(p, db);
  EXPECT_EQ(*out.RelationFor("reach"), MakeRelation(1, {{"b"}, {"c"}}));
  EXPECT_EQ(*out.RelationFor("unreachable"), MakeRelation(1, {{"d"}}));
}

TEST(DatalogEvalTest, ConstraintsFilterBindings) {
  Program p = *ParseProgram("loopless(X, Y) :- edge(X, Y), X != Y.");
  Database db = *MakeDatabase({{"edge", 2}},
                              {{"edge", {{"a", "a"}, {"a", "b"}}}});
  Database out = *Evaluate(p, db);
  EXPECT_EQ(*out.RelationFor("loopless"), MakeRelation(2, {{"a", "b"}}));
}

TEST(DatalogEvalTest, ConstantsInRules) {
  Program p = *ParseProgram("from_a(Y) :- edge(a, Y). marked(z).");
  Database db = *MakeDatabase({{"edge", 2}},
                              {{"edge", {{"a", "b"}, {"b", "c"}}}});
  Database out = *Evaluate(p, db);
  EXPECT_EQ(*out.RelationFor("from_a"), MakeRelation(1, {{"b"}}));
  EXPECT_EQ(*out.RelationFor("marked"), MakeRelation(1, {{"z"}}));
}

TEST(DatalogEvalTest, HeadPredicateSeededFromEdb) {
  // IDB predicate with stored facts: they persist and feed derivation.
  Program p = *ParseProgram("path(X, Z) :- path(X, Y), path(Y, Z).");
  Database db = *MakeDatabase({{"path", 2}},
                              {{"path", {{"a", "b"}, {"b", "c"}}}});
  Database out = *Evaluate(p, db);
  EXPECT_EQ(*out.RelationFor("path"),
            MakeRelation(2, {{"a", "b"}, {"b", "c"}, {"a", "c"}}));
}

TEST(DatalogEvalTest, MaskedMatchesEvaluatePerWorld) {
  // One masked fixpoint over 64 worlds, each a random graph, gives every
  // world the least model Evaluate computes over that world alone.
  std::mt19937_64 rng(4242);
  const char* programs[] = {
      "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z).",
      "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), path(Y, Z).",
      "from(v0). from(Y) :- from(X), edge(X, Y), X != Y. "
      "back(X, v1) :- from(X), edge(X, v1). cyclic() :- edge(X, X).",
  };
  std::vector<testutil::Graph> graphs;
  for (int w = 0; w < 64; ++w) {
    graphs.push_back(testutil::RandomGraph(6, 0.2, &rng));
    // RandomGraph draws no self-loops; a third of the worlds get one.
    if (w % 3 == 0) graphs.back().edges.insert({w % 6, w % 6});
  }
  for (const char* text : programs) {
    Program program = *ParseProgram(text);
    std::unordered_map<Symbol, MaskedFacts> edb;
    MaskedFacts& facts = edb[Name("edge")];
    facts.arity = 2;
    for (int w = 0; w < 64; ++w) {
      for (TupleView row : testutil::EdgeRelation(graphs[w])) {
        facts.values.insert(facts.values.end(), row.begin(), row.end());
        facts.masks.push_back(uint64_t{1} << w);
      }
    }
    EvalStats stats;
    StatusOr<std::vector<MaskedHead>> heads =
        EvaluateMasked(program, edb, ~uint64_t{0}, nullptr, &stats);
    ASSERT_TRUE(heads.ok()) << heads.status();
    ASSERT_EQ(heads->size(), program.HeadPredicates().size());
    size_t derived = 0;
    for (int w = 0; w < 64; ++w) {
      EvalStats one;
      Database least = *Evaluate(program, GraphDb(graphs[w]), &one);
      derived += one.derived_tuples;
      for (const MaskedHead& head : *heads) {
        Relation::Builder in_world(head.tuples.arity());
        for (size_t k = 0; k < head.masks.size(); ++k) {
          ASSERT_NE(head.masks[k], 0u);
          if (((head.masks[k] >> w) & 1) != 0) in_world.Append(head.tuples[k]);
        }
        EXPECT_EQ(in_world.Build(), *least.FindRelation(head.predicate))
            << text << " world " << w << " " << NameOf(head.predicate);
      }
    }
    EXPECT_EQ(stats.derived_tuples, derived) << text;
  }
}

TEST(DatalogEvalTest, MaskedRejectsNegationHeadFactsAndExpiredTokens) {
  std::unordered_map<Symbol, MaskedFacts> edb;
  edb[Name("q")] = MaskedFacts{1, {Name("a")}, {1}};
  EXPECT_EQ(EvaluateMasked(*ParseProgram("p(X) :- q(X), !r(X)."), edb, 1,
                           nullptr)
                .status()
                .code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(EvaluateMasked(*ParseProgram("q(X) :- q(X)."), edb, 1, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  CancelToken expired;
  expired.Cancel();
  EXPECT_EQ(EvaluateMasked(*ParseProgram("p(X) :- q(X)."), edb, 1, &expired)
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
}

TEST(DatalogEvalTest, UnsafeProgramRejected) {
  Program p = *ParseProgram("p(X).");
  Database db = *MakeDatabase({{"q", 1}}, {});
  EXPECT_FALSE(Evaluate(p, db).ok());
}

TEST(FromFirstOrderTest, AcceptsThePaperTransitiveClosureSentence) {
  // Example 1's sentence: body disjunction distributes into two Horn clauses.
  Formula phi = *ParseFormula(
      "forall x1, x2, x3: (R2(x1, x2) & R1(x2, x3)) | R1(x1, x3) -> R2(x1, x3)");
  auto program = FromFirstOrder(phi);
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(program->has_value());
  EXPECT_EQ((*program)->rules.size(), 2u);
}

TEST(FromFirstOrderTest, AcceptsFactsAndConstraints) {
  Formula phi = *ParseFormula(
      "R(a, b) & (forall x, y: Q(x, y) & !(x = y) -> S(x, y))");
  auto program = FromFirstOrder(phi);
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(program->has_value());
  EXPECT_EQ((*program)->rules.size(), 2u);
  EXPECT_EQ((*program)->rules[1].constraints.size(), 1u);
}

TEST(FromFirstOrderTest, RejectsNonHornShapes) {
  // Negated body atom.
  EXPECT_FALSE(FromFirstOrder(*ParseFormula("forall x: !R(x) -> S(x)"))->has_value());
  // Biconditional.
  EXPECT_FALSE(FromFirstOrder(*ParseFormula("forall x: R(x) <-> S(x)"))->has_value());
  // Disjunctive head.
  EXPECT_FALSE(
      FromFirstOrder(*ParseFormula("forall x: R(x) -> S(x) | T(x)"))->has_value());
  // Existential body.
  EXPECT_FALSE(FromFirstOrder(*ParseFormula("forall x: (exists y: Q(x, y)) -> S(x)"))
                   ->has_value());
}

}  // namespace
}  // namespace kbt::datalog
