#include "eval/model_check.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "logic/analysis.h"
#include "logic/parser.h"
#include "testutil.h"

namespace kbt {
namespace {

Database FlightDb() {
  return *MakeDatabase({{"R1", 2}},
                       {{"R1", {{"yyz", "yow"}, {"yow", "yul"}, {"yul", "yqb"}}}});
}

TEST(ModelCheckTest, AtomsFollowStoredFacts) {
  Database db = FlightDb();
  EXPECT_TRUE(*Satisfies(db, *ParseFormula("R1(yyz, yow)")));
  EXPECT_FALSE(*Satisfies(db, *ParseFormula("R1(yow, yyz)")));  // Closed world.
}

TEST(ModelCheckTest, ConnectivesAndEquality) {
  Database db = FlightDb();
  EXPECT_TRUE(*Satisfies(db, *ParseFormula("R1(yyz, yow) & !R1(yow, yyz)")));
  EXPECT_TRUE(*Satisfies(db, *ParseFormula("R1(a, b) | R1(yyz, yow)")));
  EXPECT_TRUE(*Satisfies(db, *ParseFormula("R1(a, b) -> false")));
  EXPECT_TRUE(*Satisfies(db, *ParseFormula("R1(yyz, yow) <-> R1(yow, yul)")));
  EXPECT_TRUE(*Satisfies(db, *ParseFormula("yyz = yyz & !(yyz = yow)")));
}

TEST(ModelCheckTest, QuantifiersOverActiveDomain) {
  Database db = FlightDb();
  EXPECT_TRUE(*Satisfies(db, *ParseFormula("exists x: R1(yyz, x)")));
  EXPECT_TRUE(*Satisfies(db, *ParseFormula("forall x, y: R1(x, y) -> !(x = y)")));
  EXPECT_FALSE(*Satisfies(db, *ParseFormula("forall x: exists y: R1(x, y)")));
}

TEST(ModelCheckTest, ConstantsOfFormulaJoinTheDomain) {
  Database db = *MakeDatabase({{"P", 1}}, {{"P", {{"a"}}}});
  // "zz" appears only in the formula; it still participates in quantification.
  EXPECT_TRUE(*Satisfies(db, *ParseFormula("exists x: !P(x) & x = zz")));
}

TEST(ModelCheckTest, ExplicitDomainOverridesActive) {
  Database db = *MakeDatabase({{"P", 1}}, {{"P", {{"a"}}}});
  Formula some_missing = *ParseFormula("exists x: !P(x)");
  // Over the bare active domain {a} there is no non-P element...
  EXPECT_FALSE(*Satisfies(db, some_missing));
  // ...but over a caller-supplied larger domain there is.
  EXPECT_TRUE(*Satisfies(db, some_missing, {Name("a"), Name("b")}));
}

TEST(ModelCheckTest, UndeclaredRelationIsAnError) {
  Database db = FlightDb();
  auto result = Satisfies(db, *ParseFormula("Zed(yyz)"));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelCheckTest, NonSentenceRejected) {
  Database db = FlightDb();
  auto result = Satisfies(db, Atom("R1", {Term::Var("x"), Term::Var("y")}));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelCheckTest, KbSatisfiesIsUniversal) {
  Database with = *MakeDatabase({{"P", 1}}, {{"P", {{"a"}}}});
  Database without = *MakeDatabase({{"P", 1}}, {});
  Knowledgebase kb = *Knowledgebase::FromDatabases({with, without});
  EXPECT_FALSE(*KbSatisfies(kb, *ParseFormula("P(a)")));
  EXPECT_TRUE(*KbSatisfies(Knowledgebase::Singleton(with), *ParseFormula("P(a)")));
  EXPECT_TRUE(*KbSatisfies(Knowledgebase(), *ParseFormula("P(a)")));  // Vacuous.
}

TEST(ModelCheckTest, EvaluateQueryComputesAnswerSet) {
  Database db = FlightDb();
  Formula reach2 = *ParseFormula("exists z: R1(x, z) & R1(z, y)");
  // x, y free by construction.
  Formula body = Exists("z", And(Atom("R1", {Term::Var("x"), Term::Var("z")}),
                                 Atom("R1", {Term::Var("z"), Term::Var("y")})));
  Relation ans = *EvaluateQuery(db, body, {Name("x"), Name("y")},
                                ActiveDomain(db, body));
  EXPECT_EQ(ans, MakeRelation(2, {{"yyz", "yul"}, {"yow", "yqb"}}));
  (void)reach2;
}

TEST(ModelCheckTest, EvaluateQueryZeroVariables) {
  Database db = FlightDb();
  Formula yes = *ParseFormula("R1(yyz, yow)");
  Relation r = *EvaluateQuery(db, yes, {}, db.ActiveDomain());
  EXPECT_EQ(r.size(), 1u);  // {()}.
  Formula no = *ParseFormula("R1(yow, yyz)");
  EXPECT_TRUE(EvaluateQuery(db, no, {}, db.ActiveDomain())->empty());
}

TEST(ModelCheckTest, EvaluateQueryRejectsUncoveredFreeVariables) {
  Database db = FlightDb();
  Formula body = Atom("R1", {Term::Var("x"), Term::Var("y")});
  auto result = EvaluateQuery(db, body, {Name("x")}, db.ActiveDomain());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

/// Up to 64 distinct worlds over P/1 and Q/2 on a..d, with no Dom pinning
/// their domains: worlds gain and lose values, and the sentences' constants
/// a, b and c are absent from some.
Knowledgebase DomainVaryingKb(std::mt19937_64* rng) {
  const std::vector<std::string> values = {"a", "b", "c", "d"};
  std::uniform_int_distribution<int> worlds(1, 64);
  std::bernoulli_distribution sparse(0.2);
  std::vector<Database> dbs;
  for (int w = worlds(*rng); w > 0; --w) {
    Relation::Builder p(1), q(2);
    for (const std::string& x : values) {
      if (sparse(*rng)) p.Append({Name(x)});
      for (const std::string& y : values) {
        if (sparse(*rng)) q.Append({Name(x), Name(y)});
      }
    }
    dbs.push_back(*Database::Create(testutil::TestSchema(),
                                    {Relation(1), p.Build(), q.Build()}));
  }
  return *Knowledgebase::FromDatabases(std::move(dbs));
}

TEST(ModelCheckTest, MaskedQueriesMatchEachWorldsEvaluateQuery) {
  // The leading quantifiers' variables are left free: the masked answers,
  // restricted to world w, must be EvaluateQuery's on World(w) over its own
  // active domain.
  std::mt19937_64 rng(19);
  testutil::RandomSentenceGenerator gen(&rng);
  std::vector<Formula> sentences = {
      *ParseSentence("forall u1: P(u1) -> (exists u2: Q(u1, u2) & !(u1 = u2))"),
      *ParseSentence("forall u1, u2: (Q(u1, u2) <-> Q(u2, u1)) | P(a)"),
      *ParseSentence("exists u1: (forall u2: Q(u2, u1) -> P(u2)) <-> !P(u1)"),
  };
  int compared = 0;
  for (int iter = 0; iter < 150; ++iter) {
    Knowledgebase kb = DomainVaryingKb(&rng);
    Formula phi = iter < 3 ? sentences[static_cast<size_t>(iter)]
                           : gen.Generate(4);
    std::vector<Symbol> vars;
    Formula body = phi;
    while (body->kind() == FormulaKind::kExists ||
           body->kind() == FormulaKind::kForall) {
      vars.push_back(body->variable());
      body = body->children()[0];
    }
    WorldDomains domains(*kb.base(), ConstantsOf(phi));
    WorldBlock block(*kb.base(), kb.overlays(), domains,
                     {Name("P"), Name("Q")});
    StatusOr<MaskedAnswers> masked = EvaluateQueryMasked(block, body, vars);
    ASSERT_TRUE(masked.ok()) << masked.status();
    for (size_t w = 0; w < kb.size(); ++w) {
      Database world = kb.World(w);
      StatusOr<Relation> expected =
          EvaluateQuery(world, body, vars, ActiveDomain(world, phi));
      ASSERT_TRUE(expected.ok()) << expected.status();
      Relation::Builder rows(vars.size());
      for (size_t r = 0; r < masked->masks.size(); ++r) {
        if (((masked->masks[r] >> w) & 1) != 0) {
          rows.Append(TupleView(masked->values.data() + r * vars.size(),
                                vars.size()));
        }
      }
      EXPECT_EQ(rows.Build(), *expected) << "iter " << iter << " world " << w;
      ++compared;
    }
  }
  EXPECT_GT(compared, 1000);
}

}  // namespace
}  // namespace kbt
