#include "core/tau.h"

#include <gtest/gtest.h>

#include <random>

#include "core/engine.h"
#include "eval/model_check.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "testutil.h"

namespace kbt {
namespace {

using testutil::KbAsStrings;
using testutil::RandomKnowledgebase;
using testutil::RandomSentenceGenerator;

/// Fixed domain pinned by the Dom relation of testutil::RandomDatabase.
std::vector<Value> FixedDomain() {
  std::vector<Value> out;
  for (const std::string& c : testutil::TestConstants()) out.push_back(Name(c));
  return out;
}

/// Theorem 2.1, properties (i)–(viii): the update operator τ satisfies the
/// Katsuno–Mendelzon postulates. Each property is tested on randomized
/// knowledgebases and sentences (satisfaction evaluated over the pinned domain,
/// matching the B used inside μ).
class KmPostulateTest : public ::testing::TestWithParam<int> {
 protected:
  std::mt19937_64 rng_{static_cast<uint64_t>(GetParam()) * 0x9e3779b9u + 0xB5};
};

// (i) τ_φ(kb) ⊨ φ: the new fact holds in every resulting world.
TEST_P(KmPostulateTest, PostulateI_ResultSatisfiesInsertion) {
  RandomSentenceGenerator gen(&rng_, 0.2);
  for (int trial = 0; trial < 6; ++trial) {
    Knowledgebase kb = RandomKnowledgebase(&rng_);
    Formula phi = gen.Generate(3);
    Knowledgebase result = *Tau(phi, kb);
    for (size_t w = 0; w < result.size(); ++w) {
      const Database db = result.World(w);
      EXPECT_TRUE(*Satisfies(db, phi, FixedDomain())) << ToString(phi);
    }
  }
}

// (ii) kb ⊨ φ ⟹ τ_φ(kb) = kb.
TEST_P(KmPostulateTest, PostulateII_NoChangeWhenAlreadyTrue) {
  RandomSentenceGenerator gen(&rng_, 0.0);
  int hits = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Knowledgebase kb = RandomKnowledgebase(&rng_);
    Formula phi = gen.Generate(2);
    bool holds = true;
    for (size_t w = 0; w < kb.size(); ++w) {
      const Database db = kb.World(w);
      if (!*Satisfies(db, phi, FixedDomain())) {
        holds = false;
        break;
      }
    }
    if (!holds) continue;
    ++hits;
    EXPECT_EQ(*Tau(phi, kb), kb) << ToString(phi);
  }
  // Deterministic instance so the postulate is never tested vacuously.
  Knowledgebase kb = RandomKnowledgebase(&rng_);
  Formula dom_fact = *ParseFormula("Dom(a)");
  EXPECT_EQ(*Tau(dom_fact, kb), kb);
  EXPECT_GE(hits, 0);
}

// (iii) kb ≠ ∅ and ⟦φ⟧ ≠ ∅ ⟹ τ_φ(kb) ≠ ∅.
TEST_P(KmPostulateTest, PostulateIII_ConsistencyPreserved) {
  RandomSentenceGenerator gen(&rng_, 0.2);
  for (int trial = 0; trial < 8; ++trial) {
    Knowledgebase kb = RandomKnowledgebase(&rng_);
    Formula phi = gen.Generate(3);
    // Satisfiability of φ over (B, s): ask μ's own engine on one member — but to
    // stay independent, decide by brute force over the reference grounding.
    MuOptions ref;
    ref.strategy = MuStrategy::kReference;
    ref.max_reference_atoms = 16;
    StatusOr<Knowledgebase> one = Mu(phi, kb.World(0), ref);
    if (!one.ok()) continue;
    bool satisfiable = !one->empty();
    Knowledgebase result = *Tau(phi, kb);
    if (satisfiable) {
      EXPECT_FALSE(result.empty()) << ToString(phi);
    } else {
      EXPECT_TRUE(result.empty()) << ToString(phi);
    }
  }
}

// (iv) ⟦φ⟧ = ⟦ψ⟧ ⟹ τ_φ(kb) = τ_ψ(kb): irrelevance of syntax, the postulate the
// FUV baseline violates (§2.1). Tested with syntactic variants that preserve
// models, schema and constants.
TEST_P(KmPostulateTest, PostulateIV_IrrelevanceOfSyntax) {
  RandomSentenceGenerator gen(&rng_, 0.2);
  for (int trial = 0; trial < 5; ++trial) {
    Knowledgebase kb = RandomKnowledgebase(&rng_);
    Formula phi = gen.Generate(3);
    Knowledgebase expected = *Tau(phi, kb);
    std::vector<Formula> variants = {
        Not(Not(phi)),
        And(phi, phi),
        Or(phi, phi),
        Or(phi, And(phi, phi)),
        And(std::vector<Formula>{phi, True()}),
    };
    for (const Formula& psi : variants) {
      EXPECT_EQ(KbAsStrings(*Tau(psi, kb)), KbAsStrings(expected))
          << "φ = " << ToString(phi) << ", ψ = " << ToString(psi);
    }
  }
}

// (v) τ_φ(kb) ∩ ⟦ψ⟧ ⊆ τ_{φ∧ψ}(kb).
TEST_P(KmPostulateTest, PostulateV_ConjunctionRefines) {
  RandomSentenceGenerator gen(&rng_, 0.0);
  for (int trial = 0; trial < 6; ++trial) {
    Knowledgebase kb = RandomKnowledgebase(&rng_);
    Formula phi = gen.Generate(2);
    Formula psi = gen.Generate(2);
    Knowledgebase tau_phi = *Tau(phi, kb);
    Knowledgebase tau_both = *Tau(And(phi, psi), kb);
    for (size_t w = 0; w < tau_phi.size(); ++w) {
      const Database db = tau_phi.World(w);
      if (!*Satisfies(db, psi, FixedDomain())) continue;
      EXPECT_TRUE(tau_both.Contains(db))
          << "φ = " << ToString(phi) << ", ψ = " << ToString(psi)
          << ", db = " << db.ToString();
    }
  }
}

// (vi) τ_φ(kb) ⊨ ψ and τ_ψ(kb) ⊨ φ ⟹ τ_φ(kb) = τ_ψ(kb).
TEST_P(KmPostulateTest, PostulateVI_MutualEntailment) {
  RandomSentenceGenerator gen(&rng_, 0.0);
  for (int trial = 0; trial < 10; ++trial) {
    Knowledgebase kb = RandomKnowledgebase(&rng_);
    Formula phi = gen.Generate(2);
    Formula psi = gen.Generate(2);
    Knowledgebase tau_phi = *Tau(phi, kb);
    Knowledgebase tau_psi = *Tau(psi, kb);
    auto entails = [&](const Knowledgebase& worlds, const Formula& f) {
      for (size_t w = 0; w < worlds.size(); ++w) {
        const Database db = worlds.World(w);
        if (!*Satisfies(db, f, FixedDomain())) return false;
      }
      return true;
    };
    if (entails(tau_phi, psi) && entails(tau_psi, phi)) {
      EXPECT_EQ(KbAsStrings(tau_phi), KbAsStrings(tau_psi))
          << "φ = " << ToString(phi) << ", ψ = " << ToString(psi);
    }
  }
}

// (vii) τ_φ({db}) ∩ τ_ψ({db}) ⊆ τ_{φ∨ψ}({db}).
TEST_P(KmPostulateTest, PostulateVII_DisjunctionOnSingletons) {
  RandomSentenceGenerator gen(&rng_, 0.0);
  for (int trial = 0; trial < 6; ++trial) {
    Knowledgebase kb = Knowledgebase::Singleton(testutil::RandomDatabase(&rng_));
    Formula phi = gen.Generate(2);
    Formula psi = gen.Generate(2);
    Knowledgebase tau_phi = *Tau(phi, kb);
    Knowledgebase tau_psi = *Tau(psi, kb);
    Knowledgebase tau_or = *Tau(Or(phi, psi), kb);
    for (size_t w = 0; w < tau_phi.size(); ++w) {
      const Database db = tau_phi.World(w);
      if (!tau_psi.Contains(db)) continue;
      EXPECT_TRUE(tau_or.Contains(db))
          << "φ = " << ToString(phi) << ", ψ = " << ToString(psi);
    }
  }
}

// (viii) τ_φ(kb1 ∪ kb2) = τ_φ(kb1) ∪ τ_φ(kb2): update is pointwise over worlds.
TEST_P(KmPostulateTest, PostulateVIII_DistributesOverUnion) {
  RandomSentenceGenerator gen(&rng_, 0.2);
  for (int trial = 0; trial < 6; ++trial) {
    Knowledgebase kb1 = RandomKnowledgebase(&rng_);
    Knowledgebase kb2 = RandomKnowledgebase(&rng_);
    Formula phi = gen.Generate(3);
    Knowledgebase joint = *Tau(phi, *Knowledgebase::UnionAll({kb1, kb2}));
    Knowledgebase split =
        *Knowledgebase::UnionAll({*Tau(phi, kb1), *Tau(phi, kb2)});
    EXPECT_EQ(KbAsStrings(joint), KbAsStrings(split)) << ToString(phi);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KmPostulateTest, ::testing::Range(0, 8));

// Lemma 2.1: update commutes with neither ⊓ nor ⊔ — the paper's two witnesses.
TEST(Lemma21Test, GlbDoesNotCommuteWithTau) {
  // kb = {<{(a1,a2,a3)}>, <{(a1,a2,a4)}>} over R1/3.
  Database d1 = *MakeDatabase({{"R1", 3}}, {{"R1", {{"a1", "a2", "a3"}}}});
  Database d2 = *MakeDatabase({{"R1", 3}}, {{"R1", {{"a1", "a2", "a4"}}}});
  Knowledgebase kb = *Knowledgebase::FromDatabases({d1, d2});
  Formula phi = *ParseFormula("forall x1, x2: R1(x1, a2, x2) -> R2(x1)");

  // ⊓(τ_φ(kb)) = {(∅, {a1})}.
  Knowledgebase tau_then_glb = (*Tau(phi, kb)).Glb();
  ASSERT_EQ(tau_then_glb.size(), 1u);
  EXPECT_TRUE(tau_then_glb.World(0).RelationFor("R1")->empty());
  EXPECT_EQ(*tau_then_glb.World(0).RelationFor("R2"),
            MakeRelation(1, {{"a1"}}));

  // τ_φ(⊓(kb)) = {(∅, ∅)}.
  Knowledgebase glb_then_tau = *Tau(phi, kb.Glb());
  ASSERT_EQ(glb_then_tau.size(), 1u);
  EXPECT_TRUE(glb_then_tau.World(0).RelationFor("R1")->empty());
  EXPECT_TRUE(glb_then_tau.World(0).RelationFor("R2")->empty());

  EXPECT_NE(KbAsStrings(tau_then_glb), KbAsStrings(glb_then_tau));
}

TEST(Lemma21Test, LubDoesNotCommuteWithTau) {
  // kb = {<{(a1,a2)}>, <{(a2,a3)}>} over R3/2.
  Database d1 = *MakeDatabase({{"R3", 2}}, {{"R3", {{"a1", "a2"}}}});
  Database d2 = *MakeDatabase({{"R3", 2}}, {{"R3", {{"a2", "a3"}}}});
  Knowledgebase kb = *Knowledgebase::FromDatabases({d1, d2});
  Formula phi = *ParseFormula(
      "forall x1, x2, x3: R3(x1, x3) | (R3(x1, x2) & R3(x2, x3)) -> R4(x1, x3)");

  // τ_φ(⊔(kb)): R4 = {(a1,a2), (a2,a3), (a1,a3)}.
  Knowledgebase lub_then_tau = *Tau(phi, kb.Lub());
  ASSERT_EQ(lub_then_tau.size(), 1u);
  EXPECT_EQ(*lub_then_tau.World(0).RelationFor("R4"),
            MakeRelation(2, {{"a1", "a2"}, {"a2", "a3"}, {"a1", "a3"}}));

  // ⊔(τ_φ(kb)): R4 = {(a1,a2), (a2,a3)} — no chaining across worlds.
  Knowledgebase tau_then_lub = (*Tau(phi, kb)).Lub();
  ASSERT_EQ(tau_then_lub.size(), 1u);
  EXPECT_EQ(*tau_then_lub.World(0).RelationFor("R4"),
            MakeRelation(2, {{"a1", "a2"}, {"a2", "a3"}}));

  EXPECT_NE(KbAsStrings(lub_then_tau), KbAsStrings(tau_then_lub));
}

TEST(TauTest, EmptyKbStaysEmptyWithExtendedSchema) {
  Knowledgebase kb(*Schema::Of({{"R", 1}}));
  Knowledgebase out = *Tau(*ParseFormula("S(a)"), kb);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.schema().size(), 2u);
}

TEST(TauTest, StatsAreAggregated) {
  Knowledgebase kb = *Knowledgebase::FromDatabases(
      {*MakeDatabase({{"R", 1}}, {{"R", {{"a"}}}}),
       *MakeDatabase({{"R", 1}}, {{"R", {{"b"}}}})});
  TauStats stats;
  ASSERT_TRUE(Tau(*ParseFormula("R(c)"), kb, MuOptions(), &stats).ok());
  EXPECT_EQ(stats.input_databases, 2u);
  EXPECT_EQ(stats.output_databases, 2u);
  EXPECT_EQ(stats.mu.minimal_models, 2u);
}

}  // namespace
}  // namespace kbt
