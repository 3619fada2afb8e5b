#include "core/mu.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "logic/parser.h"
#include "testutil.h"

namespace kbt {
namespace {

using testutil::KbAsStrings;

MuOptions Strategy(MuStrategy s) {
  MuOptions o;
  o.strategy = s;
  return o;
}

const MuStrategy kGeneralStrategies[] = {MuStrategy::kReference, MuStrategy::kSat};

TEST(MuBasicTest, InsertNewFact) {
  Database db = *MakeDatabase({{"R", 1}}, {{"R", {{"a"}}}});
  for (MuStrategy s : kGeneralStrategies) {
    Knowledgebase kb = *Mu(*ParseFormula("R(b)"), db, Strategy(s));
    ASSERT_EQ(kb.size(), 1u) << MuStrategyName(s);
    EXPECT_EQ(*kb.World(0).RelationFor("R"),
              MakeRelation(1, {{"a"}, {"b"}}));
  }
}

TEST(MuBasicTest, InsertExistingFactIsIdentity) {
  Database db = *MakeDatabase({{"R", 1}}, {{"R", {{"a"}}}});
  for (MuStrategy s : kGeneralStrategies) {
    Knowledgebase kb = *Mu(*ParseFormula("R(a)"), db, Strategy(s));
    ASSERT_EQ(kb.size(), 1u);
    EXPECT_EQ(kb.World(0), db);
  }
}

TEST(MuBasicTest, DeleteFact) {
  // Example 1.2's "delete flight AC902": insert the denial of its existence.
  Database db = *MakeDatabase({{"R", 2}}, {{"R", {{"yyz", "yow"}, {"yow", "yul"}}}});
  for (MuStrategy s : kGeneralStrategies) {
    Knowledgebase kb = *Mu(*ParseFormula("!R(yyz, yow)"), db, Strategy(s));
    ASSERT_EQ(kb.size(), 1u);
    EXPECT_EQ(*kb.World(0).RelationFor("R"), MakeRelation(2, {{"yow", "yul"}}));
  }
}

TEST(MuBasicTest, DisjunctiveInsertProducesIndefiniteness) {
  // [AbG85]: updates with multiple results are the source of indefiniteness.
  Database db = *MakeDatabase({{"R", 1}}, {});
  for (MuStrategy s : kGeneralStrategies) {
    Knowledgebase kb = *Mu(*ParseFormula("R(a) | R(b)"), db, Strategy(s));
    EXPECT_EQ(kb.size(), 2u) << MuStrategyName(s);
    EXPECT_EQ(KbAsStrings(kb),
              KbAsStrings(*Knowledgebase::FromDatabases(
                  {*MakeDatabase({{"R", 1}}, {{"R", {{"a"}}}}),
                   *MakeDatabase({{"R", 1}}, {{"R", {{"b"}}}})})));
  }
}

TEST(MuBasicTest, DisjunctionAlreadySatisfiedStaysPut) {
  Database db = *MakeDatabase({{"R", 1}}, {{"R", {{"a"}}}});
  for (MuStrategy s : kGeneralStrategies) {
    Knowledgebase kb = *Mu(*ParseFormula("R(a) | R(b)"), db, Strategy(s));
    ASSERT_EQ(kb.size(), 1u);
    EXPECT_EQ(kb.World(0), db);
  }
}

TEST(MuBasicTest, ContradictionYieldsEmptyKb) {
  Database db = *MakeDatabase({{"R", 1}}, {{"R", {{"a"}}}});
  for (MuStrategy s : kGeneralStrategies) {
    Knowledgebase kb = *Mu(*ParseFormula("R(a) & !R(a)"), db, Strategy(s));
    EXPECT_TRUE(kb.empty());
    EXPECT_EQ(kb.schema(), db.schema());
  }
}

TEST(MuBasicTest, TautologyKeepsDatabase) {
  Database db = *MakeDatabase({{"R", 1}}, {{"R", {{"a"}}}});
  for (MuStrategy s : kGeneralStrategies) {
    Knowledgebase kb = *Mu(*ParseFormula("R(a) | !R(a)"), db, Strategy(s));
    ASSERT_EQ(kb.size(), 1u);
    EXPECT_EQ(kb.World(0), db);
  }
}

TEST(MuBasicTest, NewRelationMinimized) {
  // Inserting ∀x (R(x) → S(x)) with S new: minimal S = copy of R, R untouched.
  Database db = *MakeDatabase({{"R", 1}}, {{"R", {{"a"}, {"b"}}}});
  for (MuStrategy s :
       {MuStrategy::kReference, MuStrategy::kSat, MuStrategy::kDatalog}) {
    Knowledgebase kb = *Mu(*ParseFormula("forall x: R(x) -> S(x)"), db, Strategy(s));
    ASSERT_EQ(kb.size(), 1u) << MuStrategyName(s);
    EXPECT_EQ(*kb.World(0).RelationFor("R"), MakeRelation(1, {{"a"}, {"b"}}));
    EXPECT_EQ(*kb.World(0).RelationFor("S"), MakeRelation(1, {{"a"}, {"b"}}));
  }
}

TEST(MuBasicTest, UniversalDeletionShrinksRelation) {
  // ∀x ¬R(x): delete everything.
  Database db = *MakeDatabase({{"R", 1}}, {{"R", {{"a"}, {"b"}}}});
  for (MuStrategy s : kGeneralStrategies) {
    Knowledgebase kb = *Mu(*ParseFormula("forall x: !R(x)"), db, Strategy(s));
    ASSERT_EQ(kb.size(), 1u);
    EXPECT_TRUE(kb.World(0).RelationFor("R")->empty());
  }
}

TEST(MuBasicTest, CardinalityConstraintHasManyMinimalModels) {
  // "Some element is not in R": |B| minimal models, each dropping one element.
  Database db = *MakeDatabase({{"R", 1}}, {{"R", {{"a"}, {"b"}, {"c"}}}});
  for (MuStrategy s : kGeneralStrategies) {
    Knowledgebase kb = *Mu(*ParseFormula("exists x: !R(x)"), db, Strategy(s));
    EXPECT_EQ(kb.size(), 3u) << MuStrategyName(s);
    for (size_t w = 0; w < kb.size(); ++w) {
      const Database m = kb.World(w);
      EXPECT_EQ(m.RelationFor("R")->size(), 2u);
    }
  }
}

TEST(MuBasicTest, ZeroAryRelationUpdate) {
  Database db = *MakeDatabase({{"R0", 0}}, {});
  for (MuStrategy s : kGeneralStrategies) {
    Knowledgebase kb = *Mu(*ParseFormula("R0()"), db, Strategy(s));
    ASSERT_EQ(kb.size(), 1u);
    EXPECT_TRUE(kb.World(0).RelationFor("R0")->Contains(Tuple()));
  }
}

TEST(MuBasicTest, SchemaExtensionOrder) {
  Database db = *MakeDatabase({{"R", 1}}, {{"R", {{"a"}}}});
  Knowledgebase kb = *Mu(*ParseFormula("S(b) & T(c)"), db);
  ASSERT_EQ(kb.size(), 1u);
  const Schema& s = kb.schema();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.decl(0).symbol, Name("R"));  // σ(db) first, then σ(φ) order.
  EXPECT_EQ(s.decl(1).symbol, Name("S"));
  EXPECT_EQ(s.decl(2).symbol, Name("T"));
}

TEST(MuBasicTest, FormulaConstantsExtendTheDomain) {
  // ∃x (S(x) ∧ x ≠ a) over db with only 'a': needs the formula constant 'z'.
  Database db = *MakeDatabase({{"R", 1}}, {{"R", {{"a"}}}});
  for (MuStrategy s : kGeneralStrategies) {
    Knowledgebase kb =
        *Mu(*ParseFormula("exists x: S(x) & !(x = a) & (x = z)"), db, Strategy(s));
    ASSERT_EQ(kb.size(), 1u) << MuStrategyName(s);
    EXPECT_EQ(*kb.World(0).RelationFor("S"), MakeRelation(1, {{"z"}}));
  }
}

TEST(MuBasicTest, ExplicitStrategyErrorsWhenInapplicable) {
  Database db = *MakeDatabase({{"R", 1}}, {{"R", {{"a"}}}});
  // Not Horn (negation in head position).
  auto r1 = Mu(*ParseFormula("forall x: R(x) -> !S(x)"), db,
               Strategy(MuStrategy::kDatalog));
  EXPECT_EQ(r1.status().code(), StatusCode::kUnsupported);
  // Not definitional (head relation already in σ(db)).
  auto r2 = Mu(*ParseFormula("forall x: R(x) -> R(x)"), db,
               Strategy(MuStrategy::kDefinitional));
  EXPECT_EQ(r2.status().code(), StatusCode::kUnsupported);
}

TEST(MuBasicTest, ReferenceAtomBudgetEnforced) {
  Database db = *MakeDatabase({{"R", 2}},
                              {{"R", {{"a", "b"}, {"b", "c"}, {"c", "d"}}}});
  MuOptions opts = Strategy(MuStrategy::kReference);
  opts.max_reference_atoms = 4;
  auto result = Mu(*ParseFormula("forall x, y: R(x, y) -> R(y, x)"), db, opts);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(MuBasicTest, AutoDispatchPicksExpectedStrategy) {
  Database db = *MakeDatabase({{"R", 2}}, {{"R", {{"a", "b"}}}});
  MuStats stats;
  ASSERT_TRUE(Mu(*ParseFormula("R(a, a)"), db, MuOptions(), &stats).ok());
  EXPECT_EQ(stats.used, MuStrategy::kReference);  // Ground → Theorem 4.7 path.
  ASSERT_TRUE(Mu(*ParseFormula("forall x, y, z: (T(x, y) & R(y, z)) | R(x, z) "
                               "-> T(x, z)"),
                 db, MuOptions(), &stats)
                  .ok());
  EXPECT_EQ(stats.used, MuStrategy::kDatalog);  // Horn, new head → Theorem 4.8.
  ASSERT_TRUE(Mu(*ParseFormula("forall x: (exists y: R(x, y) | R(y, x)) -> V(x)"),
                 db, MuOptions(), &stats)
                  .ok());
  EXPECT_EQ(stats.used, MuStrategy::kDefinitional);
  ASSERT_TRUE(Mu(*ParseFormula("forall x: S(x) <-> !S2(x)"), db, MuOptions(), &stats)
                  .ok());
  EXPECT_EQ(stats.used, MuStrategy::kSat);  // General engine.
}

}  // namespace
}  // namespace kbt
