/// \file
/// The comparison baselines of §1 and §2.1: the FUV83 flock update (rejected by the
/// paper for violating the irrelevance of syntax) and an AGM-style revision
/// operator (the wrong notion of change for an evolving world — Example 1.1).

#include <gtest/gtest.h>

#include "baseline/fuv_update.h"
#include "baseline/revision.h"
#include "core/kbt.h"
#include "testutil.h"

namespace kbt {
namespace {

using testutil::KbAsStrings;

Formula A() { return Atom("A", {}); }
Formula B() { return Atom("B", {}); }

TEST(FuvUpdateTest, ConsistentInsertKeepsWholeTheory) {
  baseline::FuvResult r = *baseline::FuvUpdate({A()}, B());
  ASSERT_EQ(r.flock.size(), 1u);
  EXPECT_EQ(r.flock[0].size(), 2u);
}

TEST(FuvUpdateTest, MaximalConsistentSubsetsEnumerated) {
  // Theory {A, B, A∧B→C}; insert ¬C. The three maximal consistent subsets are
  // the paper's §1 example: {A, A∧B→C}, {B, A∧B→C}, {A, B}.
  Formula c = Atom("C", {});
  Formula rule = Implies(And(A(), B()), c);
  baseline::FuvResult r = *baseline::FuvUpdate({A(), B(), rule}, Not(c));
  EXPECT_EQ(r.flock.size(), 3u);
  for (const auto& theory : r.flock) {
    EXPECT_EQ(theory.size(), 3u);  // Two survivors + the insertion.
    EXPECT_TRUE(*baseline::GroundConsistent(theory));
  }
}

TEST(FuvUpdateTest, InconsistentInsertionGivesEmptyFlock) {
  baseline::FuvResult r = *baseline::FuvUpdate({A()}, And(B(), Not(B())));
  EXPECT_TRUE(r.flock.empty());
}

TEST(FuvUpdateTest, ViolatesIrrelevanceOfSyntax) {
  // {A, B} and {A ∧ B} are logically equivalent theories. Inserting ¬B keeps A
  // from the first but nothing from the second — the syntax of the stored
  // sentences leaks into the result, which is exactly why §2.1 rejects this
  // operator (KM postulate (iv) / Theorem 2.1(iv)).
  baseline::FuvResult split = *baseline::FuvUpdate({A(), B()}, Not(B()));
  baseline::FuvResult merged = *baseline::FuvUpdate({And(A(), B())}, Not(B()));
  ASSERT_EQ(split.flock.size(), 1u);
  ASSERT_EQ(merged.flock.size(), 1u);
  // Split theory retains A...
  EXPECT_EQ(split.flock[0].size(), 2u);
  EXPECT_TRUE(*baseline::GroundConsistent(
      {And(split.flock[0]), A()}));
  bool split_entails_a = !*baseline::GroundConsistent(
      {And(split.flock[0]), Not(A())});
  // ...but the merged theory forgets it.
  bool merged_entails_a = !*baseline::GroundConsistent(
      {And(merged.flock[0]), Not(A())});
  EXPECT_TRUE(split_entails_a);
  EXPECT_FALSE(merged_entails_a);
}

TEST(FuvUpdateTest, ContrastTauSatisfiesIrrelevanceOfSyntax) {
  // The same pair of equivalent inputs through τ: identical results. (The model
  // counterpart of the theories {A,B} / {A∧B} is the world where both hold.)
  Database world = *MakeDatabase({{"A", 0}, {"B", 0}}, {});
  world = *world.WithRelation("A", Relation(0).WithTuple(Tuple()));
  world = *world.WithRelation("B", Relation(0).WithTuple(Tuple()));
  Knowledgebase kb = Knowledgebase::Singleton(world);
  Knowledgebase r1 = *Tau(Not(B()), kb);
  Knowledgebase r2 = *Tau(And(Not(B()), Not(B())), kb);  // Equivalent syntax.
  EXPECT_EQ(KbAsStrings(r1), KbAsStrings(r2));
  ASSERT_EQ(r1.size(), 1u);
  // And τ retains A — minimal change.
  EXPECT_FALSE(r1.World(0).RelationFor("A")->empty());
  EXPECT_TRUE(r1.World(0).RelationFor("B")->empty());
}

TEST(FuvUpdateTest, NonGroundInputRejected) {
  Formula open = Forall("x", Atom("P", {Term::Var("x")}));
  EXPECT_EQ(baseline::FuvUpdate({open}, A()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FuvUpdateTest, TheorySizeGuard) {
  std::vector<Formula> big(21, A());
  EXPECT_EQ(baseline::FuvUpdate(big, B()).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(RevisionTest, Example11RevisionVsUpdate) {
  // kb = {{v}, {w}} (one robot landed, unknown which); learn "V has landed".
  Database has_v = *MakeDatabase({{"R1", 1}}, {{"R1", {{"v"}}}});
  Database has_w = *MakeDatabase({{"R1", 1}}, {{"R1", {{"w"}}}});
  Knowledgebase kb = *Knowledgebase::FromDatabases({has_v, has_w});
  Formula v_landed = *ParseFormula("R1(v)");

  // Revision (static world): keep the worlds already satisfying φ — concludes
  // ¬w, which Example 1.1 argues is wrong for a *changed* world.
  Knowledgebase revised = *baseline::Revise(v_landed, kb);
  EXPECT_EQ(KbAsStrings(revised), KbAsStrings(Knowledgebase::Singleton(has_v)));

  // Update (changing world): per-world minimal change leaves W open.
  Knowledgebase updated = *Tau(v_landed, kb);
  EXPECT_EQ(updated.size(), 2u);
  EXPECT_NE(KbAsStrings(revised), KbAsStrings(updated));
}

TEST(RevisionTest, FallsBackToUpdateWhenInconsistent) {
  Database empty = *MakeDatabase({{"R1", 1}}, {});
  Knowledgebase kb = Knowledgebase::Singleton(empty);
  Formula v_landed = *ParseFormula("R1(v)");
  Knowledgebase revised = *baseline::Revise(v_landed, kb);
  EXPECT_EQ(KbAsStrings(revised), KbAsStrings(*Tau(v_landed, kb)));
}

TEST(RevisionTest, NewRelationsForceUpdatePath) {
  Database db = *MakeDatabase({{"R1", 1}}, {{"R1", {{"v"}}}});
  Knowledgebase kb = Knowledgebase::Singleton(db);
  // φ mentions a relation outside σ(kb): no member can satisfy it as-is.
  Knowledgebase out = *baseline::Revise(*ParseFormula("S(v)"), kb);
  EXPECT_EQ(out.schema().size(), 2u);
}

}  // namespace
}  // namespace kbt
