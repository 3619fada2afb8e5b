#include "core/hypothetical.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/engine.h"
#include "exec/cnf_cache.h"
#include "exec/ground_cache.h"
#include "exec/scratch.h"
#include "logic/parser.h"
#include "sat/solver.h"
#include "testutil.h"

namespace kbt {
namespace {

Knowledgebase RobotsKb() {
  Database has_v = *MakeDatabase({{"R1", 1}}, {{"R1", {{"v"}}}});
  Database has_w = *MakeDatabase({{"R1", 1}}, {{"R1", {{"w"}}}});
  return *Knowledgebase::FromDatabases({has_v, has_w});
}

TEST(CounterfactualTest, Example4RobotsQuery) {
  // "If V had landed, would W necessarily still be orbiting?" — no.
  Knowledgebase kb = RobotsKb();
  Formula v_landed = *ParseFormula("R1(v)");
  EXPECT_FALSE(*NestedCounterfactual(kb, {v_landed}, *ParseFormula("!R1(w)"),
                                     Modality::kNecessarily));
  // But it is possible that W is still orbiting.
  EXPECT_TRUE(*NestedCounterfactual(kb, {v_landed}, *ParseFormula("!R1(w)"),
                                    Modality::kPossibly));
  // And V's landing is certain after the update (KM postulate (i)).
  EXPECT_TRUE(*NestedCounterfactual(kb, {v_landed}, v_landed,
                                    Modality::kNecessarily));
}

TEST(CounterfactualTest, ModalitiesDifferOnIndefiniteResults) {
  Knowledgebase kb = *MakeSingletonKb({{"P", 1}}, {});
  Formula a_or_b = *ParseFormula("P(a) | P(b)");
  EXPECT_FALSE(*NestedCounterfactual(kb, {a_or_b}, *ParseFormula("P(a)"),
                                     Modality::kNecessarily));
  EXPECT_TRUE(*NestedCounterfactual(kb, {a_or_b}, *ParseFormula("P(a)"),
                                    Modality::kPossibly));
  EXPECT_TRUE(*NestedCounterfactual(kb, {a_or_b}, a_or_b,
                                    Modality::kNecessarily));
}

TEST(CounterfactualTest, InconsistentAntecedent) {
  // A contradictory antecedent empties the kb: necessity is vacuous, possibility
  // fails.
  Knowledgebase kb = *MakeSingletonKb({{"P", 1}}, {{"P", {{"a"}}}});
  Formula bad = *ParseFormula("P(a) & !P(a)");
  EXPECT_TRUE(*NestedCounterfactual(kb, {bad}, *ParseFormula("P(zz)"),
                                    Modality::kNecessarily));
  EXPECT_FALSE(*NestedCounterfactual(kb, {bad}, *ParseFormula("P(a)"),
                                     Modality::kPossibly));
}

TEST(CounterfactualTest, RightNestedChain) {
  // (A > (B > C)) as τ_A then τ_B then check C — the note after Example 4.
  Knowledgebase kb = *MakeSingletonKb({{"P", 1}}, {});
  std::vector<Formula> chain = {*ParseFormula("P(a)"), *ParseFormula("P(b)")};
  EXPECT_TRUE(*NestedCounterfactual(kb, chain, *ParseFormula("P(a) & P(b)"),
                                    Modality::kNecessarily));
  // Later antecedents can undo earlier ones; the chain order matters.
  std::vector<Formula> undo = {*ParseFormula("P(a)"), *ParseFormula("!P(a)")};
  EXPECT_FALSE(*NestedCounterfactual(kb, undo, *ParseFormula("P(a)"),
                                     Modality::kPossibly));
}

TEST(CounterfactualTest, EmptyChainIsModalQuery) {
  Knowledgebase kb = RobotsKb();
  EXPECT_TRUE(*NestedCounterfactual(kb, {}, *ParseFormula("R1(v) | R1(w)"),
                                    Modality::kNecessarily));
  EXPECT_FALSE(*NestedCounterfactual(kb, {}, *ParseFormula("R1(v)"),
                                     Modality::kNecessarily));
}

TEST(CounterfactualTest, ConsequentOverNewRelations) {
  // The consequent may mention a relation the antecedent introduced.
  Knowledgebase kb = *MakeSingletonKb({{"P", 1}}, {{"P", {{"a"}}}});
  Formula q_ab = *ParseFormula("Q(a, b)");
  EXPECT_TRUE(*NestedCounterfactual(kb, {q_ab}, q_ab, Modality::kNecessarily));
  // ...or one mentioned by neither: empty under CWA, handled by extension.
  EXPECT_FALSE(*NestedCounterfactual(kb, {q_ab}, *ParseFormula("Zed(a)"),
                                     Modality::kPossibly));
}

// ---------------------------------------------------------------------------
// The chain over ChainSteps (the serving path): equal to the specification
// oracle under every executor-state configuration.

/// Property: with or without borrowed per-step caches and a pinned
/// solver/scratch — and with state reused *across* calls, the serving shape —
/// the served chain evaluation agrees with testutil::OracleHolds on random
/// inputs.
TEST(CounterfactualTest, ExecChainEquivalentToPlainNestedCounterfactual) {
  std::mt19937_64 rng(19920615);
  testutil::RandomSentenceGenerator gen(&rng);
  std::uniform_int_distribution<int> chain_len(0, 2);
  std::bernoulli_distribution coin(0.5);

  // Session-pinned state, deliberately shared across all rounds (the serving
  // shape: one solver/scratch per session, one cache pair per sentence).
  sat::Solver solver;
  exec::WorldScratch scratch;
  std::vector<std::unique_ptr<exec::GroundingCache>> ground_caches;
  std::vector<std::unique_ptr<exec::CnfCache>> cnf_caches;
  size_t next_cache = 0;

  for (int round = 0; round < 25; ++round) {
    Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
    int len = chain_len(rng);
    std::vector<Formula> antecedents;
    bool with_caches = coin(rng);
    for (int i = 0; i < len; ++i) antecedents.push_back(gen.Generate(2));
    // Build steps only after `antecedents` is final — ChainStep borrows.
    std::vector<ChainStep> steps;
    next_cache = 0;  // Formulas are fresh per round; fresh caches match them.
    for (const Formula& f : antecedents) {
      ChainStep step;
      step.antecedent = &f;
      if (with_caches) {
        if (next_cache == ground_caches.size()) {
          ground_caches.push_back(std::make_unique<exec::GroundingCache>());
          cnf_caches.push_back(std::make_unique<exec::CnfCache>());
        } else {
          // Reused slots would pair a cache with a *different* sentence, which
          // the cache-sharing contract forbids — always take a fresh pair.
          ground_caches[next_cache] = std::make_unique<exec::GroundingCache>();
          cnf_caches[next_cache] = std::make_unique<exec::CnfCache>();
        }
        step.ground_cache = ground_caches[next_cache].get();
        step.cnf_cache = cnf_caches[next_cache].get();
        ++next_cache;
      }
      steps.push_back(step);
    }
    Formula consequent = gen.Generate(2);
    Modality modality = coin(rng) ? Modality::kNecessarily : Modality::kPossibly;

    auto expected =
        testutil::OracleHolds(kb, antecedents, consequent, modality);
    ASSERT_TRUE(expected.ok()) << expected.status().message();

    TauOptions options;
    if (coin(rng)) {
      options.solver = &solver;
      options.scratch = &scratch;
    }
    auto served =
        NestedCounterfactual(kb, steps, consequent, modality, options);
    ASSERT_TRUE(served.ok()) << served.status().message();
    EXPECT_EQ(*served, *expected)
        << "round " << round << " caches=" << with_caches;
  }
}

TEST(CounterfactualTest, ExecEmptyChainIsModalQuery) {
  Knowledgebase kb = RobotsKb();
  TauOptions options;
  EXPECT_TRUE(*NestedCounterfactual(kb, {}, *ParseFormula("R1(v) | R1(w)"),
                                    Modality::kNecessarily, options));
  EXPECT_FALSE(*NestedCounterfactual(kb, {}, *ParseFormula("R1(v)"),
                                     Modality::kNecessarily, options));
}

}  // namespace
}  // namespace kbt
