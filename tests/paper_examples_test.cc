/// \file
/// The seven example transformations of §3, each verified against an independent
/// reference implementation (tests/testutil.h) — never against the engine itself.

#include <gtest/gtest.h>

#include <random>

#include "core/kbt.h"
#include "testutil.h"

namespace kbt {
namespace {

using testutil::DecodeEdges;
using testutil::EdgeRelation;
using testutil::Graph;
using testutil::KbAsStrings;

// ---------------------------------------------------------------------------
// Example 1: transitive closure. π2 τ_φ([(r)]) = [(s)] with s = r⁺.
// ---------------------------------------------------------------------------

class TransitiveClosureExample : public ::testing::TestWithParam<int> {};

TEST_P(TransitiveClosureExample, MatchesWarshall) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  Graph g = testutil::RandomGraph(5, 0.3, &rng);
  Knowledgebase kb = Knowledgebase::Singleton(
      *Database::Create(*Schema::Of({{"R1", 2}}), {EdgeRelation(g)}));
  Engine engine;
  Knowledgebase out = *engine.Apply(
      "tau{ forall x1, x2, x3: (R2(x1, x2) & R1(x2, x3)) | R1(x1, x3) "
      "-> R2(x1, x3) } >> pi[R2]",
      kb);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(DecodeEdges(*out.World(0).RelationFor("R2")),
            testutil::TransitiveClosure(g.edges, g.n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransitiveClosureExample, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Example 2: transitive reductions. π2 τ_{ψ∧χ}([(r1)]) = all transitive reducts.
// ---------------------------------------------------------------------------

const char* kReductionSentence =
    "(forall x1, x2: R2(x1, x2) -> R1(x1, x2)) & "
    "(forall x1, x3: (exists x2: R3(x1, x2) & R1(x2, x3)) | R1(x1, x3) "
    "<-> R3(x1, x3)) & "
    "(forall x1, x3: (exists x2: R3(x1, x2) & R2(x2, x3)) | R2(x1, x3) "
    "<-> R3(x1, x3))";

class TransitiveReductionExample : public ::testing::TestWithParam<int> {};

TEST_P(TransitiveReductionExample, EnumeratesAllReducts) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 17 + 3);
  Graph g = testutil::RandomDag(4, 0.5, &rng);
  Knowledgebase kb = Knowledgebase::Singleton(
      *Database::Create(*Schema::Of({{"R1", 2}}), {EdgeRelation(g)}));
  Engine engine;
  Knowledgebase out = *engine.Apply(
      std::string("tau{ ") + kReductionSentence + " } >> pi[R2]", kb);

  std::set<std::set<std::pair<int, int>>> got;
  for (size_t w = 0; w < out.size(); ++w) {
    const Database db = out.World(w);
    got.insert(DecodeEdges(*db.RelationFor("R2")));
  }
  auto reference = testutil::TransitiveReductions(g.edges, g.n);
  std::set<std::set<std::pair<int, int>>> expected(reference.begin(),
                                                   reference.end());
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransitiveReductionExample, ::testing::Range(0, 6));

TEST(TransitiveReductionExample2, CyclicGraphCaveatDocumented) {
  // On CYCLIC graphs the paper's Example 2 sentence under-constrains R3: the
  // biconditional only forces R3 to be *a* fixpoint of the closure equation over
  // R2, not the least one, so a cycle in R2 can "self-justify" R3 edges that R2
  // does not actually generate. Witness: R1 = {02, 12, 21}. The subset
  // R2 = {12, 21} has TC(R2) = {11, 12, 21, 22} ≠ TC(R1), yet
  // (R2, R3 = TC(R1)) satisfies ψ ∧ χ because R3(0,1) and R3(0,2) justify each
  // other through the 1↔2 cycle. Minimality then prefers this smaller R2, so the
  // transformation returns {12, 21} instead of the true (and only)
  // closure-preserving subset {02, 12, 21}. We record the behavior here; the
  // construction is exact on DAGs (previous test), where justification chains
  // cannot cycle.
  Graph g;
  g.n = 3;
  g.edges = {{0, 2}, {1, 2}, {2, 1}};
  Knowledgebase kb = Knowledgebase::Singleton(
      *Database::Create(*Schema::Of({{"R1", 2}}), {EdgeRelation(g)}));
  Engine engine;
  Knowledgebase out = *engine.Apply(
      std::string("tau{ ") + kReductionSentence + " } >> pi[R2]", kb);
  ASSERT_EQ(out.size(), 1u);
  std::set<std::pair<int, int>> spurious = {{1, 2}, {2, 1}};
  EXPECT_EQ(DecodeEdges(*out.World(0).RelationFor("R2")), spurious);
  // The honest reference answer differs:
  auto reference = testutil::TransitiveReductions(g.edges, g.n);
  ASSERT_EQ(reference.size(), 1u);
  EXPECT_EQ(reference[0], g.edges);
}

TEST(TransitiveReductionExample2, DiamondHasUniqueReduct) {
  // a→b→d, a→c→d plus shortcut a→d: the reduct drops only the shortcut.
  Graph g;
  g.n = 4;
  g.edges = {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {0, 3}};
  Knowledgebase kb = Knowledgebase::Singleton(
      *Database::Create(*Schema::Of({{"R1", 2}}), {EdgeRelation(g)}));
  Engine engine;
  Knowledgebase out = *engine.Apply(
      std::string("tau{ ") + kReductionSentence + " } >> pi[R2]", kb);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(DecodeEdges(*out.World(0).RelationFor("R2")),
            (std::set<std::pair<int, int>>{{0, 1}, {1, 3}, {0, 2}, {2, 3}}));
}

// ---------------------------------------------------------------------------
// Example 3: does a given edge set belong to every transitive reduction?
// ---------------------------------------------------------------------------

TEST(EdgesInEveryReductionExample, ZeroAryAnswerRelation) {
  // Cycle a↔b: two reducts of the 2-cycle {ab, ba} — actually the 2-cycle is its
  // own unique reduct; query edges {ab} ⊆ it. And for the diamond-with-shortcut
  // the shortcut edge is in no reduct.
  Graph g;
  g.n = 4;
  g.edges = {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {0, 3}};
  auto run = [&](std::set<std::pair<int, int>> query_edges) {
    std::vector<Tuple> q;
    for (auto [a, b] : query_edges) {
      q.push_back(Tuple{Name(testutil::VertexName(a)), Name(testutil::VertexName(b))});
    }
    Knowledgebase kb = Knowledgebase::Singleton(*Database::Create(
        *Schema::Of({{"R1", 2}, {"R5", 2}}),
        {EdgeRelation(g), Relation(2, std::move(q))}));
    Engine engine;
    // % = π_{2,5} ⊓ τ_{ψ∧χ}; then τ_ζ with ζ: (R5 ⊆ R2) → R4; answer in R4.
    Knowledgebase out = *engine.Apply(
        std::string("tau{ ") + kReductionSentence +
            " } >> pi[R2, R5] >> glb >> "
            "tau{ (forall x1, x2: R5(x1, x2) -> R2(x1, x2)) -> R4() } >> pi[R4]",
        kb);
    bool answer = false;
    for (size_t w = 0; w < out.size(); ++w) {
      const Database db = out.World(w);
      if (db.RelationFor("R4")->Contains(Tuple())) answer = true;
    }
    return answer;
  };
  EXPECT_TRUE(run({{0, 1}, {2, 3}}));  // Both edges in the unique reduct.
  EXPECT_FALSE(run({{0, 3}}));         // The shortcut is in no reduct.
  EXPECT_TRUE(run({}));                // Empty set trivially contained.
}

// ---------------------------------------------------------------------------
// Example 4 (and Example 1.1): the Venus robots — hypothetical update.
// ---------------------------------------------------------------------------

TEST(RobotsExample, UpdateLeavesWOpen) {
  // kb = {<{v}>, <{w}>}: exactly one of V, W landed (noise garbled the message).
  Database has_v = *MakeDatabase({{"R1", 1}}, {{"R1", {{"v"}}}});
  Database has_w = *MakeDatabase({{"R1", 1}}, {{"R1", {{"w"}}}});
  Knowledgebase kb = *Knowledgebase::FromDatabases({has_v, has_w});

  // Learn that V has landed: τ_{R1(v)}(kb) = {<{v}>, <{v,w}>}.
  Knowledgebase updated = *Tau(*ParseFormula("R1(v)"), kb);
  EXPECT_EQ(KbAsStrings(updated),
            KbAsStrings(*Knowledgebase::FromDatabases(
                {has_v, *MakeDatabase({{"R1", 1}}, {{"R1", {{"v"}, {"w"}}}})})));

  // "If V landed, would W necessarily still be orbiting?" — no: ⊔ contains w.
  Knowledgebase lub = updated.Lub();
  ASSERT_EQ(lub.size(), 1u);
  EXPECT_TRUE(lub.World(0).RelationFor("R1")->Contains(Tuple{Name("w")}));
}

TEST(RobotsExample, RightNestedCounterfactual) {
  // (A > (B > C)) via nested insertions τ_A(τ_B(...)).
  Database db = *MakeDatabase({{"R1", 1}}, {});
  Knowledgebase kb = Knowledgebase::Singleton(db);
  Knowledgebase nested =
      *Tau(*ParseFormula("R1(v)"), *Tau(*ParseFormula("R1(w)"), kb));
  ASSERT_EQ(nested.size(), 1u);
  EXPECT_EQ(*nested.World(0).RelationFor("R1"),
            MakeRelation(1, {{"v"}, {"w"}}));
}

// ---------------------------------------------------------------------------
// Example 5: monochromatic triangle (partition into two triangle-free halves).
// ---------------------------------------------------------------------------

bool MonochromaticTriangleViaTransformations(const Graph& g) {
  Knowledgebase kb = Knowledgebase::Singleton(
      *Database::Create(*Schema::Of({{"R1", 2}}), {EdgeRelation(g)}));
  Engine engine;
  Pipeline pipeline;
  // τ_η: copy R1 into R4 (so later steps can detect changes to R1).
  pipeline.Tau(CopyFormula("R1", "R4", 2));
  // τ_{ν∧ρ}: partition into R2 ∪ R3, both antitransitive, everything symmetric.
  pipeline.Tau(
      "(forall x1, x2: R1(x1, x2) -> R2(x1, x2) | R3(x1, x2)) & "
      "(forall x1, x2, x3: R2(x1, x2) & R2(x2, x3) -> !R2(x1, x3)) & "
      "(forall x1, x2, x3: R3(x1, x2) & R3(x2, x3) -> !R3(x1, x3)) & "
      "(forall x1, x2: R1(x1, x2) <-> R1(x2, x1)) & "
      "(forall x1, x2: R2(x1, x2) <-> R2(x2, x1)) & "
      "(forall x1, x2: R3(x1, x2) <-> R3(x2, x1))");
  // τ_=: R5 := R4 \ R1 (non-empty iff R1 changed).
  pipeline.Tau(DifferenceFormula("R4", "R1", "R5", 2));
  // τ_ζ': R6 ↔ "R5 empty"; ⊔; π6.
  pipeline.Tau("R6() <-> (forall x1, x2: !R5(x1, x2))");
  pipeline.Lub().Project({"R6"});
  Knowledgebase out = *engine.Apply(pipeline, kb);
  for (size_t w = 0; w < out.size(); ++w) {
    const Database db = out.World(w);
    if (db.RelationFor("R6")->Contains(Tuple())) return true;
  }
  return false;
}

TEST(MonochromaticTriangleExample, MatchesBruteForceOnSmallGraphs) {
  // Triangle K3: 2-colorable without a monochromatic triangle.
  EXPECT_TRUE(MonochromaticTriangleViaTransformations(testutil::CompleteGraph(3)));
  // K4: still fine.
  EXPECT_TRUE(MonochromaticTriangleViaTransformations(testutil::CompleteGraph(4)));
  // 5-cycle: trivially triangle-free.
  Graph c5;
  c5.n = 5;
  for (int i = 0; i < 5; ++i) {
    c5.edges.insert({i, (i + 1) % 5});
    c5.edges.insert({(i + 1) % 5, i});
  }
  EXPECT_TRUE(MonochromaticTriangleViaTransformations(c5));
  // Cross-check the reference on the same inputs.
  EXPECT_TRUE(testutil::HasMonochromaticTriangleFreePartition(
      testutil::CompleteGraph(4).edges, 4));
}

TEST(MonochromaticTriangleExample, RandomGraphsAgreeWithBruteForce) {
  std::mt19937_64 rng(2025);
  for (int trial = 0; trial < 3; ++trial) {
    Graph g;
    g.n = 4;
    std::bernoulli_distribution coin(0.6);
    for (int i = 0; i < g.n; ++i) {
      for (int j = i + 1; j < g.n; ++j) {
        if (coin(rng)) {
          g.edges.insert({i, j});
          g.edges.insert({j, i});
        }
      }
    }
    EXPECT_EQ(MonochromaticTriangleViaTransformations(g),
              testutil::HasMonochromaticTriangleFreePartition(g.edges, g.n))
        << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Example 6: parity of a unary relation.
// ---------------------------------------------------------------------------

bool ParityIsEvenViaTransformations(int n) {
  std::vector<Tuple> elems;
  for (int i = 0; i < n; ++i) elems.push_back(Tuple{Name("e" + std::to_string(i))});
  Knowledgebase kb = Knowledgebase::Singleton(*Database::Create(
      *Schema::Of({{"R1", 1}}), {Relation(1, std::move(elems))}));
  Engine engine;
  Pipeline pipeline;
  // ν': partition R1 into R2 ∪ R3.
  pipeline.Tau("forall x1: R1(x1) -> R2(x1) | R3(x1)");
  // φ.: R4 = R2 × R3.
  pipeline.Tau("forall x1, x2: R2(x1) & R3(x2) -> R4(x1, x2)");
  // ": R4 functional both ways (keeps maximal partial bijections).
  pipeline.Tau(
      "(forall x1, x2, x3: R4(x1, x2) & R4(x1, x3) -> x2 = x3) & "
      "(forall x1, x2, x3: R4(x2, x1) & R4(x3, x1) -> x2 = x3)");
  // λ: R5 = elements matched by R4.
  pipeline.Tau("forall x1, x2: R4(x1, x2) | R4(x2, x1) -> R5(x1)");
  // ι: R6 := R1 \ R5; even iff some world has R6 = ∅.
  pipeline.Tau(DifferenceFormula("R1", "R5", "R6", 1));
  Knowledgebase out = *engine.Apply(pipeline, kb);
  for (size_t w = 0; w < out.size(); ++w) {
    const Database db = out.World(w);
    if (db.RelationFor("R6")->empty()) return true;
  }
  return false;
}

TEST(ParityExample, MatchesArithmetic) {
  EXPECT_TRUE(ParityIsEvenViaTransformations(0));
  EXPECT_FALSE(ParityIsEvenViaTransformations(1));
  EXPECT_TRUE(ParityIsEvenViaTransformations(2));
  EXPECT_FALSE(ParityIsEvenViaTransformations(3));
  EXPECT_TRUE(ParityIsEvenViaTransformations(4));
}

// ---------------------------------------------------------------------------
// Example 7: k-clique detection (the core of the maximal-clique query).
// ---------------------------------------------------------------------------

/// Inserts the paper's clique sentence and reports whether some resulting world
/// keeps both input relations unchanged — which happens iff a k-clique exists.
bool HasCliqueOfSize(const Graph& g, int k) {
  std::vector<Tuple> seeds;
  for (int i = 0; i < k; ++i) seeds.push_back(Tuple{Name("s" + std::to_string(i))});
  Database input = *Database::Create(*Schema::Of({{"R1", 2}, {"R2", 1}}),
                                     {EdgeRelation(g), Relation(1, seeds)});
  // φ: R5 a bijection from the k-element seed set R2 onto the vertex set R4,
  // whose elements are pairwise adjacent in R1.
  Formula phi = *ParseFormula(
      "(forall x1: R2(x1) -> (exists x2: R5(x1, x2))) & "
      "(forall x1: R4(x1) -> (exists x2: R5(x2, x1))) & "
      "(forall x1, x2, x3: R5(x2, x1) & R5(x3, x1) -> x2 = x3) & "
      "(forall x1, x2, x3: R5(x1, x2) & R5(x1, x3) -> x2 = x3) & "
      "(forall x1, x2: R4(x1) & R4(x2) & !(x1 = x2) -> R1(x1, x2)) & "
      "(forall x1, x2: R5(x1, x2) -> R2(x1) & R4(x2))");
  Knowledgebase out = *Tau(phi, Knowledgebase::Singleton(input));
  for (size_t w = 0; w < out.size(); ++w) {
    const Database db = out.World(w);
    if (*db.RelationFor("R1") == *input.RelationFor("R1") &&
        *db.RelationFor("R2") == *input.RelationFor("R2")) {
      return true;
    }
  }
  return false;
}

TEST(MaxCliqueExample, DetectsCliquesOfEachSize) {
  // Triangle plus a pendant vertex: max clique 3.
  Graph g;
  g.n = 4;
  for (auto [a, b] : std::vector<std::pair<int, int>>{{0, 1}, {1, 2}, {0, 2},
                                                      {2, 3}}) {
    g.edges.insert({a, b});
    g.edges.insert({b, a});
  }
  ASSERT_EQ(testutil::MaxCliqueSize(g.edges, g.n), 3);
  EXPECT_TRUE(HasCliqueOfSize(g, 2));
  EXPECT_TRUE(HasCliqueOfSize(g, 3));
  EXPECT_FALSE(HasCliqueOfSize(g, 4));
}

TEST(MaxCliqueExample, MaximalityViaKPlusOne) {
  // "Largest clique has exactly size k" ⟺ k-clique exists and (k+1)-clique
  // does not (the paper reuses the query with renamed relations).
  Graph g = testutil::CompleteGraph(3);
  int max_k = testutil::MaxCliqueSize(g.edges, g.n);
  EXPECT_TRUE(HasCliqueOfSize(g, max_k));
  EXPECT_FALSE(HasCliqueOfSize(g, max_k + 1));
}

}  // namespace
}  // namespace kbt
