/// \file
/// Cross-module invariants on randomized inputs:
///
///  * the grounder and the model checker implement the same satisfaction relation
///    (a circuit evaluated under a database's facts equals db ⊨ φ over the same
///    domain);
///  * ⊓ / ⊔ obey their lattice laws;
///  * MakeUpdateContext computes B and s exactly as eq. (9) prescribes;
///  * resource guards trip deterministically.

#include <gtest/gtest.h>

#include <random>

#include "core/kbt.h"
#include "logic/grounder.h"
#include "testutil.h"

namespace kbt {
namespace {

class GrounderModelCheckAgreement : public ::testing::TestWithParam<int> {};

TEST_P(GrounderModelCheckAgreement, CircuitUnderFactsEqualsSatisfaction) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 48271 + 23);
  testutil::RandomSentenceGenerator gen(&rng, 0.2);
  for (int trial = 0; trial < 15; ++trial) {
    Database db = testutil::RandomDatabase(&rng);
    Formula f = gen.Generate(4);
    // Extend db so σ(db) dominates σ(φ) (new relations empty under CWA).
    Schema formula_schema = *SchemaOf(f);
    Schema extended = *db.schema().Union(formula_schema);
    Database full = *db.ExtendTo(extended);
    std::vector<Value> domain = ActiveDomain(full, f);

    Grounding g = *GroundSentence(f, domain);
    bool via_circuit = g.circuit.Evaluate(g.root, [&](int atom_id) {
      const GroundAtom& atom = g.atoms.AtomOf(atom_id);
      return full.RelationFor(atom.relation)->Contains(atom.tuple);
    });
    bool via_checker = *Satisfies(full, f, domain);
    EXPECT_EQ(via_circuit, via_checker) << ToString(f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrounderModelCheckAgreement,
                         ::testing::Range(0, 12));

class LatticeLawsTest : public ::testing::TestWithParam<int> {};

TEST_P(LatticeLawsTest, GlbLubBounds) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 16807 + 29);
  Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
  Database glb = kb.Glb().World(0);
  Database lub = kb.Lub().World(0);
  for (size_t w = 0; w < kb.size(); ++w) {
    const Database member = kb.World(w);
    for (size_t i = 0; i < member.size(); ++i) {
      // ⊓ is a lower bound and ⊔ an upper bound, componentwise.
      EXPECT_TRUE(glb.relation_at(i).IsSubsetOf(member.relation_at(i)));
      EXPECT_TRUE(member.relation_at(i).IsSubsetOf(lub.relation_at(i)));
    }
  }
  // Idempotence on singletons.
  EXPECT_EQ(kb.Glb().Glb(), kb.Glb());
  EXPECT_EQ(kb.Lub().Lub(), kb.Lub());
  // ⊓ of the ⊔-singleton is itself (and vice versa).
  EXPECT_EQ(kb.Lub().Glb(), kb.Lub());
}

TEST_P(LatticeLawsTest, GlbIsGreatestLowerBound) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 69621 + 31);
  Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
  Database glb = kb.Glb().World(0);
  // Any other componentwise lower bound is ⊆ the glb: test with the glb minus a
  // tuple wherever possible.
  for (size_t i = 0; i < glb.size(); ++i) {
    if (glb.relation_at(i).empty()) continue;
    Tuple t = glb.relation_at(i).front().ToTuple();
    Relation smaller = glb.relation_at(i).WithoutTuple(t);
    EXPECT_TRUE(smaller.IsSubsetOf(glb.relation_at(i)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticeLawsTest, ::testing::Range(0, 8));

TEST(UpdateContextTest, ComputesBAndSPerEquation9) {
  Database db = *MakeDatabase({{"R", 1}}, {{"R", {{"a"}, {"b"}}}});
  Formula f = *ParseFormula("S(c) | R(b)");
  UpdateContext ctx = *MakeUpdateContext(f, db);
  // s = σ(db) then σ(φ)'s new relations.
  ASSERT_EQ(ctx.schema.size(), 2u);
  EXPECT_EQ(ctx.schema.decl(0).symbol, Name("R"));
  EXPECT_EQ(ctx.schema.decl(1).symbol, Name("S"));
  // B = values(db) ∪ constants(φ).
  std::vector<Value> expected = {Name("a"), Name("b"), Name("c")};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(ctx.domain, expected);
  // The extended base embeds db with the new relation empty.
  EXPECT_TRUE(ctx.extended_base.RelationFor("S")->empty());
  EXPECT_EQ(*ctx.extended_base.RelationFor("R"), *db.RelationFor("R"));
}

TEST(UpdateContextTest, ErrorCases) {
  Database db = *MakeDatabase({{"R", 1}}, {});
  // Arity conflict between σ(db) and σ(φ).
  EXPECT_FALSE(MakeUpdateContext(*ParseFormula("R(a, b)"), db).ok());
  // Free variables.
  EXPECT_FALSE(MakeUpdateContext(Atom("R", {Term::Var("x")}), db).ok());
}

TEST(ResourceGuardTest, MaxModelsTrips) {
  // 2^10 minimal models (all partitions) against a budget of 100.
  std::vector<Tuple> elems;
  for (int i = 0; i < 10; ++i) elems.push_back(Tuple{Name("e" + std::to_string(i))});
  Database db = *Database::Create(*Schema::Of({{"R", 1}}),
                                  {Relation(1, std::move(elems))});
  MuOptions options;
  options.strategy = MuStrategy::kSat;
  options.max_models = 100;
  auto result = Mu(*ParseFormula("forall x: R(x) -> R2(x) | R3(x)"), db, options);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(ResourceGuardTest, GroundingBudgetTrips) {
  Database db = *Database::Create(*Schema::Of({{"R", 2}}),
                                  {MakeRelation(2, {{"a", "b"}, {"b", "c"},
                                                    {"c", "d"}, {"d", "e"}})});
  MuOptions options;
  options.strategy = MuStrategy::kSat;
  options.max_ground_nodes = 50;
  auto result = Mu(*ParseFormula("forall x, y, z: R(x, y) & R(y, z) -> R(x, z)"),
                   db, options);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(TauTest, MembersWithDifferentActiveDomains) {
  // μ computes B per member; results still union into one kb.
  Database small = *MakeDatabase({{"P", 1}}, {{"P", {{"a"}}}});
  Database large = *MakeDatabase({{"P", 1}}, {{"P", {{"a"}, {"b"}, {"c"}}}});
  Knowledgebase kb = *Knowledgebase::FromDatabases({small, large});
  Knowledgebase out = *Tau(*ParseFormula("exists x: !P(x) & Q(x)"), kb);
  // small: B={a}: no way to satisfy with P untouched... except dropping P(a)
  // is farther than adding Q on a fresh... no fresh values exist in B, so the
  // minimal change drops P(a) and sets Q(a). large: B={a,b,c}: keep P, add Q(b)
  // or Q(c) — plus the symmetric variants for which element is chosen.
  EXPECT_FALSE(out.empty());
  for (size_t w = 0; w < out.size(); ++w) {
    const Database db = out.World(w);
    EXPECT_TRUE(*Satisfies(db, *ParseFormula("exists x: !P(x) & Q(x)")));
  }
}

}  // namespace
}  // namespace kbt
