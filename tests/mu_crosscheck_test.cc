#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/engine.h"
#include "core/mu.h"
#include "core/winslett_order.h"
#include "eval/model_check.h"
#include "logic/circuit.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "sat/solver.h"
#include "sat/tseitin.h"
#include "testutil.h"

namespace kbt {
namespace {

using testutil::KbAsStrings;

MuOptions Strategy(MuStrategy s) {
  MuOptions o;
  o.strategy = s;
  return o;
}

/// The workhorse property test: on random databases and random sentences, the CDCL
/// enumeration must return exactly the reference (specification) result.
class MuCrosscheckTest : public ::testing::TestWithParam<int> {};

TEST_P(MuCrosscheckTest, SatMatchesReferenceOnRandomInputs) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 6364136223846793005ULL + 9);
  testutil::RandomSentenceGenerator gen(&rng, /*new_relation_prob=*/0.15);
  int compared = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Database db = testutil::RandomDatabase(&rng);
    Formula sentence = gen.Generate(3);
    MuOptions ref = Strategy(MuStrategy::kReference);
    ref.max_reference_atoms = 16;
    StatusOr<Knowledgebase> expected = Mu(sentence, db, ref);
    if (!expected.ok()) continue;  // Too many mentioned atoms for the reference.
    StatusOr<Knowledgebase> got = Mu(sentence, db, Strategy(MuStrategy::kSat));
    ASSERT_TRUE(got.ok()) << got.status() << "\nφ = " << ToString(sentence);
    EXPECT_EQ(KbAsStrings(*got), KbAsStrings(*expected))
        << "φ = " << ToString(sentence) << "\ndb = " << db.ToString();
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MuCrosscheckTest, ::testing::Range(0, 25));

/// The inputs of the retired exact-blocking ablation, kept as one more set for
/// the crosscheck: the SAT engine (which blocks the whole cone above each
/// minimal model) must succeed on every input and match the reference
/// wherever the reference fits its atom budget.
class ConeBlockingAblationTest : public ::testing::TestWithParam<int> {};

TEST_P(ConeBlockingAblationTest, SameResultsWithoutConeBlocking) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 2862933555777941757ULL + 3);
  testutil::RandomSentenceGenerator gen(&rng, 0.1);
  int compared = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Database db = testutil::RandomDatabase(&rng);
    Formula sentence = gen.Generate(3);
    StatusOr<Knowledgebase> got = Mu(sentence, db, Strategy(MuStrategy::kSat));
    ASSERT_TRUE(got.ok()) << got.status() << "\nφ = " << ToString(sentence);
    MuOptions ref = Strategy(MuStrategy::kReference);
    ref.max_reference_atoms = 16;
    StatusOr<Knowledgebase> expected = Mu(sentence, db, ref);
    if (!expected.ok()) continue;  // Too many mentioned atoms for the reference.
    EXPECT_EQ(KbAsStrings(*got), KbAsStrings(*expected)) << ToString(sentence);
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConeBlockingAblationTest, ::testing::Range(0, 10));

/// Every returned model must satisfy the sentence over the update domain B, and be
/// no farther from db than any other returned model (internal consistency).
class MuSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(MuSoundnessTest, ModelsSatisfyAndAreMutuallyMinimal) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 3935559000370003845ULL + 7);
  testutil::RandomSentenceGenerator gen(&rng, 0.1);
  for (int trial = 0; trial < 10; ++trial) {
    Database db = testutil::RandomDatabase(&rng);
    Formula sentence = gen.Generate(3);
    StatusOr<Knowledgebase> result = Mu(sentence, db, Strategy(MuStrategy::kSat));
    ASSERT_TRUE(result.ok());
    std::vector<Value> domain = ActiveDomain(db, sentence);
    for (size_t i = 0; i < result->size(); ++i) {
      const Database m = result->World(i);
      EXPECT_TRUE(*Satisfies(m, sentence, domain))
          << "non-model returned for φ = " << ToString(sentence);
      for (size_t j = 0; j < result->size(); ++j) {
        if (j == i) continue;
        EXPECT_FALSE(*StrictlyCloser(result->World(j), m, db))
            << "dominated model returned for φ = " << ToString(sentence);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MuSoundnessTest, ::testing::Range(0, 15));

/// Builds a random circuit over `num_vars` external variables.
int RandomCircuitRoot(Circuit* c, int num_vars, std::mt19937_64* rng) {
  std::vector<int> pool;
  for (int v = 0; v < num_vars; ++v) pool.push_back(c->VarNode(v));
  std::uniform_int_distribution<int> op(0, 3);
  std::uniform_int_distribution<size_t> pick(0, 1000);
  for (int step = 0; step < 14; ++step) {
    int a = pool[pick(*rng) % pool.size()];
    int b = pool[pick(*rng) % pool.size()];
    switch (op(*rng)) {
      case 0:
        pool.push_back(c->AndNode({a, b}));
        break;
      case 1:
        pool.push_back(c->OrNode({a, b}));
        break;
      case 2:
        pool.push_back(c->NotNode(a));
        break;
      default:
        pool.push_back(c->IffNode(a, b));
        break;
    }
  }
  return pool.back();
}

/// The incremental-vs-fresh property behind the μ engine's enumeration loop:
/// enumerating all models of a circuit with ONE solver + incremental Tseitin
/// encoder and accumulated blocking clauses must produce exactly the models
/// found by re-encoding from scratch (fresh solver per step, all previous
/// blocking clauses re-added), and exactly the assignments the circuit itself
/// accepts.
class IncrementalEnumerationTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalEnumerationTest, MatchesFreshSolverEnumeration) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 1442695040888963407ULL + 5);
  constexpr int kVars = 6;
  for (int trial = 0; trial < 5; ++trial) {
    Circuit circuit;
    int root = RandomCircuitRoot(&circuit, kVars, &rng);
    std::vector<int> vars = circuit.CollectVars(root);

    // Reference: brute force over the mentioned variables.
    std::vector<uint32_t> expected;
    for (uint32_t mask = 0; mask < (uint32_t{1} << kVars); ++mask) {
      auto value = [&](int v) { return ((mask >> v) & 1) != 0; };
      uint32_t mentioned = 0;
      for (int v : vars) mentioned |= (value(v) ? 1u : 0u) << v;
      if (mentioned != mask) continue;  // Canonical: unmentioned vars false.
      if (circuit.Evaluate(root, value)) expected.push_back(mask);
    }
    std::sort(expected.begin(), expected.end());

    // Incremental: one solver, one encoder, blocking clauses pushed as found.
    std::vector<uint32_t> incremental;
    {
      sat::Solver solver;
      sat::TseitinEncoder encoder(&circuit, &solver);
      encoder.Assert(root);
      while (solver.Solve() == sat::SolveResult::kSat) {
        uint32_t mask = 0;
        std::vector<sat::Lit> block;
        for (int v : vars) {
          bool value = solver.ModelValue(encoder.VarForAtom(v));
          if (value) mask |= 1u << v;
          block.push_back(sat::MkLit(encoder.VarForAtom(v), value));
        }
        incremental.push_back(mask);
        if (block.empty()) break;  // Circuit is constant-true over no vars.
        solver.AddClause(block);
      }
    }
    std::sort(incremental.begin(), incremental.end());
    EXPECT_EQ(incremental, expected) << "incremental enumeration, trial " << trial;

    // Fresh: re-encode from scratch each step, re-adding all previous blocks.
    std::vector<uint32_t> fresh;
    std::vector<uint32_t> blocked_masks;
    while (true) {
      sat::Solver solver;
      sat::TseitinEncoder encoder(&circuit, &solver);
      encoder.Assert(root);
      bool exhausted = false;
      for (uint32_t m : blocked_masks) {
        std::vector<sat::Lit> block;
        for (int v : vars) {
          block.push_back(sat::MkLit(encoder.VarForAtom(v), ((m >> v) & 1) != 0));
        }
        if (block.empty()) {
          exhausted = true;
          break;
        }
        solver.AddClause(block);
      }
      if (exhausted || solver.Solve() == sat::SolveResult::kUnsat) break;
      uint32_t mask = 0;
      for (int v : vars) {
        if (solver.ModelValue(encoder.VarForAtom(v))) mask |= 1u << v;
      }
      fresh.push_back(mask);
      blocked_masks.push_back(mask);
    }
    std::sort(fresh.begin(), fresh.end());
    EXPECT_EQ(fresh, expected) << "fresh-solver enumeration, trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEnumerationTest, ::testing::Range(0, 10));

TEST(MuFastPathCrosscheckTest, DatalogMatchesGeneralEngines) {
  // Transitive closure sentences on small random graphs: the Theorem 4.8 fast
  // path, the CDCL engine and the reference enumeration must agree.
  std::mt19937_64 rng(424242);
  Formula tc = *ParseFormula(
      "forall x, y, z: (T(x, y) & E(y, z)) | E(x, z) -> T(x, z)");
  for (int trial = 0; trial < 6; ++trial) {
    testutil::Graph g = testutil::RandomGraph(3, 0.4, &rng);
    Database db = *Database::Create(*Schema::Of({{"E", 2}}),
                                    {testutil::EdgeRelation(g)});
    MuOptions ref = Strategy(MuStrategy::kReference);
    ref.max_reference_atoms = 18;
    StatusOr<Knowledgebase> expected = Mu(tc, db, ref);
    if (!expected.ok()) continue;
    Knowledgebase via_datalog = *Mu(tc, db, Strategy(MuStrategy::kDatalog));
    Knowledgebase via_sat = *Mu(tc, db, Strategy(MuStrategy::kSat));
    EXPECT_EQ(KbAsStrings(via_datalog), KbAsStrings(*expected));
    EXPECT_EQ(KbAsStrings(via_sat), KbAsStrings(*expected));
  }
}

TEST(MuFastPathCrosscheckTest, DatalogNaiveMatchesSeminaive) {
  // 5-node graphs are over the reference budget: the fast path is checked
  // against the CDCL engine and the hand-computed closure instead.
  std::mt19937_64 rng(777);
  Formula tc = *ParseFormula(
      "forall x, y, z: (T(x, y) & E(y, z)) | E(x, z) -> T(x, z)");
  for (int trial = 0; trial < 5; ++trial) {
    testutil::Graph g = testutil::RandomGraph(5, 0.3, &rng);
    Database db = *Database::Create(*Schema::Of({{"E", 2}}),
                                    {testutil::EdgeRelation(g)});
    Knowledgebase via_datalog = *Mu(tc, db, Strategy(MuStrategy::kDatalog));
    Knowledgebase via_sat = *Mu(tc, db, Strategy(MuStrategy::kSat));
    EXPECT_EQ(KbAsStrings(via_datalog), KbAsStrings(via_sat));
    ASSERT_EQ(via_datalog.size(), 1u);
    Database closed = via_datalog.World(0);
    EXPECT_EQ(testutil::DecodeEdges(*closed.RelationFor("T")),
              testutil::TransitiveClosure(g.edges, g.n));
  }
}

TEST(MuFastPathCrosscheckTest, SameGenerationFixpointQuery) {
  // §1 claims all fixpoint queries are expressible; same-generation is the
  // classic non-linear one. sg(x,y) ← flat(x,y); sg(x,y) ← up(x,a) sg(a,b)
  // down(b,y). Verify the Horn fast path against the CDCL engine and against a
  // hand-computed fixpoint on a small tree.
  Formula sg = *ParseFormula(
      "(forall x, y: Flat(x, y) -> Sg(x, y)) & "
      "(forall x, y, a, b: Up(x, a) & Sg(a, b) & Down(b, y) -> Sg(x, y))");
  Database db = *MakeDatabase(
      {{"Up", 2}, {"Down", 2}, {"Flat", 2}},
      {{"Up", {{"c1", "p1"}, {"c2", "p2"}}},
       {"Down", {{"p1", "c1"}, {"p2", "c2"}}},
       {"Flat", {{"p1", "p2"}}}});
  Knowledgebase via_datalog = *Mu(sg, db, Strategy(MuStrategy::kDatalog));
  Knowledgebase via_sat = *Mu(sg, db, Strategy(MuStrategy::kSat));
  EXPECT_EQ(KbAsStrings(via_datalog), KbAsStrings(via_sat));
  ASSERT_EQ(via_datalog.size(), 1u);
  // p1 ~ p2 directly; hence c1 ~ c2 one generation down.
  EXPECT_EQ(*via_datalog.World(0).RelationFor("Sg"),
            MakeRelation(2, {{"p1", "p2"}, {"c1", "c2"}}));
}

TEST(MuFastPathCrosscheckTest, MonotoneNonHornStillMinimizesToFixpoint) {
  // "in case a formula ... is monotone, our update operator also produces that
  // least fixpoint" — a monotone sentence outside the Horn fragment (disjunctive
  // body with an existential) still yields the least fixpoint via the generic
  // engine.
  Formula phi = *ParseFormula(
      "forall x, y: (E(x, y) | (exists z: T(x, z) & T(z, y))) -> T(x, y)");
  Database db = *MakeDatabase({{"E", 2}},
                              {{"E", {{"a", "b"}, {"b", "c"}, {"c", "d"}}}});
  Knowledgebase out = *Mu(phi, db, Strategy(MuStrategy::kSat));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(*out.World(0).RelationFor("T"),
            MakeRelation(2, {{"a", "b"},
                             {"b", "c"},
                             {"c", "d"},
                             {"a", "c"},
                             {"b", "d"},
                             {"a", "d"}}));
  EXPECT_EQ(*out.World(0).RelationFor("E"), *db.RelationFor("E"));
}

TEST(MuFastPathCrosscheckTest, DefinitionalMatchesGeneralEngines) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 6; ++trial) {
    Database db = testutil::RandomDatabase(&rng);
    // Non-recursive definitions with ∃-projection and ↔.
    Formula def = *ParseFormula(
        "(forall x: (exists y: Q(x, y)) -> Src(x)) & "
        "(forall x, y: Q(x, y) & P(x) <-> Good(x, y))");
    MuOptions ref = Strategy(MuStrategy::kReference);
    ref.max_reference_atoms = 16;
    StatusOr<Knowledgebase> expected = Mu(def, db, ref);
    if (!expected.ok()) continue;
    Knowledgebase via_def = *Mu(def, db, Strategy(MuStrategy::kDefinitional));
    Knowledgebase via_sat = *Mu(def, db, Strategy(MuStrategy::kSat));
    EXPECT_EQ(KbAsStrings(via_def), KbAsStrings(*expected));
    EXPECT_EQ(KbAsStrings(via_sat), KbAsStrings(*expected));
  }
}

}  // namespace
}  // namespace kbt
