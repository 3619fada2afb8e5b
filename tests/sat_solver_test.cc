#include "sat/solver.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace kbt::sat {
namespace {

TEST(SatSolverTest, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
}

TEST(SatSolverTest, UnitsPropagate) {
  Solver s;
  Var a = s.NewVar(), b = s.NewVar();
  s.AddClause({MkLit(a)});
  s.AddClause({MkLit(a, true), MkLit(b)});
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(a));
  EXPECT_TRUE(s.ModelValue(b));
}

TEST(SatSolverTest, DirectContradictionIsUnsat) {
  Solver s;
  Var a = s.NewVar();
  s.AddClause({MkLit(a)});
  EXPECT_FALSE(s.AddClause({MkLit(a, true)}));
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
  EXPECT_TRUE(s.inconsistent());
}

TEST(SatSolverTest, AssertUnitsAtRootMatchesUnitClauses) {
  // Batched root units must reach the same fixpoint as one-at-a-time unit
  // AddClause calls: same satisfiability, same final model.
  Solver batched, classic;
  std::vector<Var> bv, cv;
  for (int i = 0; i < 4; ++i) {
    bv.push_back(batched.NewVar());
    cv.push_back(classic.NewVar());
  }
  for (Solver* s : {&batched, &classic}) {
    std::vector<Var>& v = s == &batched ? bv : cv;
    s->AddClause({MkLit(v[0], true), MkLit(v[2])});
    s->AddClause({MkLit(v[1], true), MkLit(v[2], true), MkLit(v[3])});
  }
  EXPECT_TRUE(batched.AssertUnitsAtRoot({MkLit(bv[0]), MkLit(bv[1])}));
  EXPECT_TRUE(classic.AddClause({MkLit(cv[0])}));
  EXPECT_TRUE(classic.AddClause({MkLit(cv[1])}));
  ASSERT_EQ(batched.Solve(), SolveResult::kSat);
  ASSERT_EQ(classic.Solve(), SolveResult::kSat);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(batched.ModelValue(bv[i]), classic.ModelValue(cv[i])) << i;
  }
}

TEST(SatSolverTest, AssertUnitsAtRootDetectsConflicts) {
  {
    // Directly contradictory units in one batch.
    Solver s;
    Var a = s.NewVar();
    EXPECT_FALSE(s.AssertUnitsAtRoot({MkLit(a), MkLit(a, true)}));
    EXPECT_TRUE(s.inconsistent());
    EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
  }
  {
    // Conflict only reachable through propagation across the batch.
    Solver s;
    Var a = s.NewVar(), b = s.NewVar();
    s.AddClause({MkLit(a, true), MkLit(b, true)});
    EXPECT_FALSE(s.AssertUnitsAtRoot({MkLit(a), MkLit(b)}));
    EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
  }
  {
    // Units already true are absorbed; the batch stays satisfiable.
    Solver s;
    Var a = s.NewVar();
    s.AddClause({MkLit(a)});
    EXPECT_TRUE(s.AssertUnitsAtRoot({MkLit(a), MkLit(a)}));
    ASSERT_EQ(s.Solve(), SolveResult::kSat);
    EXPECT_TRUE(s.ModelValue(a));
  }
}

TEST(SatSolverTest, TautologyAndDuplicateLiterals) {
  Solver s;
  Var a = s.NewVar(), b = s.NewVar();
  s.AddClause({MkLit(a), MkLit(a, true)});        // Tautology: dropped.
  s.AddClause({MkLit(b), MkLit(b), MkLit(b)});    // Collapses to unit.
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(b));
}

TEST(SatSolverTest, ModelsSatisfyAllClauses) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 6; ++i) v.push_back(s.NewVar());
  std::vector<std::vector<Lit>> clauses = {
      {MkLit(v[0]), MkLit(v[1], true), MkLit(v[2])},
      {MkLit(v[3], true), MkLit(v[4])},
      {MkLit(v[1]), MkLit(v[5], true)},
      {MkLit(v[0], true), MkLit(v[3])},
      {MkLit(v[2], true), MkLit(v[5])},
  };
  for (auto& c : clauses) s.AddClause(c);
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  for (const auto& c : clauses) {
    bool sat = false;
    for (Lit l : c) sat |= (s.ModelValue(VarOf(l)) != IsNegated(l));
    EXPECT_TRUE(sat);
  }
}

/// Pigeonhole principle PHP(n+1, n): n+1 pigeons in n holes — classically UNSAT
/// and hard for resolution; exercises conflict analysis and learning.
void AddPigeonhole(Solver* s, int pigeons, int holes,
                   std::vector<std::vector<Var>>* grid) {
  grid->assign(pigeons, std::vector<Var>(holes));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) (*grid)[p][h] = s->NewVar();
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> some;
    for (int h = 0; h < holes; ++h) some.push_back(MkLit((*grid)[p][h]));
    s->AddClause(some);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s->AddClause({MkLit((*grid)[p1][h], true), MkLit((*grid)[p2][h], true)});
      }
    }
  }
}

TEST(SatSolverTest, PigeonholeUnsat) {
  for (int n = 2; n <= 5; ++n) {
    Solver s;
    std::vector<std::vector<Var>> grid;
    AddPigeonhole(&s, n + 1, n, &grid);
    EXPECT_EQ(s.Solve(), SolveResult::kUnsat) << "PHP(" << n + 1 << "," << n << ")";
  }
}

TEST(SatSolverTest, PigeonholeExactFitSat) {
  Solver s;
  std::vector<std::vector<Var>> grid;
  AddPigeonhole(&s, 4, 4, &grid);
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
}

TEST(SatSolverTest, AssumptionsRestrictWithoutCommitting) {
  Solver s;
  Var a = s.NewVar(), b = s.NewVar();
  s.AddClause({MkLit(a), MkLit(b)});
  ASSERT_EQ(s.Solve({MkLit(a, true)}), SolveResult::kSat);
  EXPECT_FALSE(s.ModelValue(a));
  EXPECT_TRUE(s.ModelValue(b));
  // Contradictory assumptions: UNSAT under them, SAT afterwards.
  EXPECT_EQ(s.Solve({MkLit(a, true), MkLit(b, true)}), SolveResult::kUnsat);
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_FALSE(s.inconsistent());
}

TEST(SatSolverTest, AssumptionConflictsWithUnit) {
  Solver s;
  Var a = s.NewVar();
  s.AddClause({MkLit(a)});
  EXPECT_EQ(s.Solve({MkLit(a, true)}), SolveResult::kUnsat);
  EXPECT_EQ(s.Solve({MkLit(a)}), SolveResult::kSat);
}

TEST(SatSolverTest, IncrementalClauseAdditionAfterSolve) {
  Solver s;
  Var a = s.NewVar(), b = s.NewVar();
  s.AddClause({MkLit(a), MkLit(b)});
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  // Block both single-literal solutions step by step.
  s.AddClause({MkLit(a, true)});
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(b));
  s.AddClause({MkLit(b, true)});
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
}

TEST(SatSolverTest, ActivationLiteralPattern) {
  // The μ engine retires guarded clauses by asserting ¬act.
  Solver s;
  Var x = s.NewVar(), act = s.NewVar();
  s.AddClause({MkLit(act, true), MkLit(x)});  // act → x.
  ASSERT_EQ(s.Solve({MkLit(act)}), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(x));
  s.AddClause({MkLit(act, true)});  // Retire the guard.
  ASSERT_EQ(s.Solve({MkLit(x, true)}), SolveResult::kSat);
  EXPECT_FALSE(s.ModelValue(x));
}

/// Brute-force satisfiability for cross-checking.
bool BruteForceSat(int num_vars, const std::vector<std::vector<Lit>>& clauses) {
  for (uint32_t mask = 0; mask < (uint32_t{1} << num_vars); ++mask) {
    bool all = true;
    for (const auto& c : clauses) {
      bool sat = false;
      for (Lit l : c) {
        bool value = (mask >> VarOf(l)) & 1;
        if (value != IsNegated(l)) sat = true;
      }
      if (!sat) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

class Random3SatTest : public ::testing::TestWithParam<int> {};

TEST_P(Random3SatTest, AgreesWithBruteForce) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  constexpr int kVars = 10;
  std::uniform_int_distribution<int> var(0, kVars - 1);
  std::bernoulli_distribution sign(0.5);
  // Sweep clause counts through the under- and over-constrained regimes.
  for (int m : {20, 35, 43, 50, 70}) {
    Solver s;
    for (int i = 0; i < kVars; ++i) s.NewVar();
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < m; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k) clause.push_back(MkLit(var(rng), sign(rng)));
      clauses.push_back(clause);
      s.AddClause(clause);
    }
    bool expected = BruteForceSat(kVars, clauses);
    SolveResult got = s.Solve();
    EXPECT_EQ(got == SolveResult::kSat, expected) << "m=" << m;
    if (got == SolveResult::kSat) {
      for (const auto& c : clauses) {
        bool sat = false;
        for (Lit l : c) sat |= (s.ModelValue(VarOf(l)) != IsNegated(l));
        EXPECT_TRUE(sat);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Random3SatTest, ::testing::Range(0, 20));

TEST(SatSolverTest, ClauseArenaGrowsUnderPropagation) {
  // Interleave clause addition (arena growth and reallocation) with solving and
  // unit propagation: a long implication spine a_0 → a_1 → ... → a_n plus side
  // clauses. Every intermediate Solve must propagate through clauses that moved
  // when the arena reallocated.
  Solver s;
  constexpr int kChain = 2000;
  std::vector<Var> v;
  for (int i = 0; i < kChain; ++i) {
    v.push_back(s.NewVar());
    s.SetPhase(v.back(), false);  // Interim models leave the chain all-false.
  }
  for (int i = 0; i + 1 < kChain; ++i) {
    s.AddClause({MkLit(v[static_cast<size_t>(i)], true),
                 MkLit(v[static_cast<size_t>(i + 1)])});
    // Ternary filler so clause sizes vary across the arena.
    if (i + 2 < kChain) {
      s.AddClause({MkLit(v[static_cast<size_t>(i)], true),
                   MkLit(v[static_cast<size_t>(i + 1)], true),
                   MkLit(v[static_cast<size_t>(i + 2)])});
    }
    if (i % 500 == 0) {
      ASSERT_EQ(s.Solve(), SolveResult::kSat);
    }
  }
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_FALSE(s.ModelValue(v[kChain - 1]));
  EXPECT_GT(s.num_problem_clauses(), 3000u);
  EXPECT_GT(s.arena_words(), 10000u);
  // Assert the chain root: the unit cascades through every stored implication
  // at the root level, walking the whole (repeatedly reallocated) arena.
  s.AddClause({MkLit(v[0])});
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  for (int j = 0; j < kChain; ++j) {
    ASSERT_TRUE(s.ModelValue(v[static_cast<size_t>(j)])) << "chain " << j;
  }
}

TEST(SatSolverTest, DbReductionKeepsReasonsAndCorrectness) {
  // Level-0 trail literals with clause reasons must survive reduction: seed a
  // few root implications, then force reductions with a tiny learned budget on
  // a resolution-hard instance. Debug builds additionally assert inside the
  // garbage collector that no reason clause is deleted.
  Solver s;
  Var r0 = s.NewVar(), r1 = s.NewVar();
  // Store the binary first (both vars unassigned, so it is attached rather
  // than simplified away), then assert r0: propagation enqueues r1 at the root
  // with the stored clause as its reason.
  s.AddClause({MkLit(r0, true), MkLit(r1)});
  s.AddClause({MkLit(r0)});
  ASSERT_EQ(s.num_problem_clauses(), 1u);
  std::vector<std::vector<Var>> grid;
  AddPigeonhole(&s, 7, 6, &grid);
  s.SetReduceLimit(64);
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
  EXPECT_GT(s.stats().db_reductions, 0u);
  EXPECT_GT(s.stats().learned_deleted, 0u);
}

TEST(SatSolverTest, DbReductionPreservesSatAnswers) {
  // Random satisfiable-leaning instances solved with an aggressive reduction
  // budget must still agree with brute force, and returned models must check.
  std::mt19937_64 rng(20260729);
  constexpr int kVars = 10;
  std::uniform_int_distribution<int> var(0, kVars - 1);
  std::bernoulli_distribution sign(0.5);
  for (int trial = 0; trial < 10; ++trial) {
    Solver s;
    s.SetReduceLimit(16);
    for (int i = 0; i < kVars; ++i) s.NewVar();
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < 45; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k) clause.push_back(MkLit(var(rng), sign(rng)));
      clauses.push_back(clause);
      s.AddClause(clause);
    }
    bool expected = BruteForceSat(kVars, clauses);
    SolveResult got = s.Solve();
    EXPECT_EQ(got == SolveResult::kSat, expected) << "trial=" << trial;
    if (got == SolveResult::kSat) {
      for (const auto& c : clauses) {
        bool sat = false;
        for (Lit l : c) sat |= (s.ModelValue(VarOf(l)) != IsNegated(l));
        EXPECT_TRUE(sat);
      }
    }
  }
}

TEST(SatSolverTest, ClauseCountersTrackArenaContents) {
  Solver s;
  Var a = s.NewVar(), b = s.NewVar(), c = s.NewVar();
  EXPECT_EQ(s.num_clauses(), 0u);
  s.AddClause({MkLit(a), MkLit(b)});
  s.AddClause({MkLit(a, true), MkLit(b), MkLit(c)});
  EXPECT_EQ(s.num_problem_clauses(), 2u);
  s.AddClause({MkLit(c)});  // Unit: enqueued at the root, never stored.
  EXPECT_EQ(s.num_problem_clauses(), 2u);
  EXPECT_EQ(s.num_learned_clauses(), 0u);
  // Header + lits per clause: (1 + 2) + (1 + 3).
  EXPECT_EQ(s.arena_words(), 7u);
}

TEST(SatSolverTest, StatsAreTracked) {
  Solver s;
  std::vector<std::vector<Var>> grid;
  AddPigeonhole(&s, 5, 4, &grid);
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().propagations, 0u);
  EXPECT_EQ(s.stats().solve_calls, 1u);
}

TEST(SatSolverTest, LbdReductionCountsGlueAndStaysCorrect) {
  // LBD-aware reduction: glue clauses (LBD ≤ 2) are counted at learn time and
  // survive every reduction pass, while high-LBD low-activity clauses go
  // first. Observable contract: on a conflict-heavy UNSAT instance with an
  // aggressive budget, reductions fire, deletions happen, glue clauses were
  // learned — and the answer is still UNSAT.
  Solver s;
  std::vector<std::vector<Var>> grid;
  AddPigeonhole(&s, 7, 6, &grid);
  s.SetReduceLimit(32);
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
  EXPECT_GT(s.stats().db_reductions, 0u);
  EXPECT_GT(s.stats().learned_deleted, 0u);
  EXPECT_GT(s.stats().glue_clauses, 0u);
  // Glue is a subset of everything learned.
  EXPECT_LE(s.stats().glue_clauses, s.stats().learned_clauses +
                                        s.stats().conflicts /* unit learns */);
}

TEST(SatSolverTest, LbdReductionPreservesSatAnswersUnderTinyBudget) {
  // The LBD ranking must only affect *which* learned clauses are dropped,
  // never correctness: random instances with constant reductions still agree
  // with brute force.
  std::mt19937_64 rng(20260730);
  constexpr int kVars = 10;
  std::uniform_int_distribution<int> var(0, kVars - 1);
  std::bernoulli_distribution sign(0.5);
  for (int trial = 0; trial < 10; ++trial) {
    Solver s;
    s.SetReduceLimit(8);
    for (int i = 0; i < kVars; ++i) s.NewVar();
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < 44; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k) clause.push_back(MkLit(var(rng), sign(rng)));
      clauses.push_back(clause);
      s.AddClause(clause);
    }
    bool expected = BruteForceSat(kVars, clauses);
    SolveResult got = s.Solve();
    EXPECT_EQ(got == SolveResult::kSat, expected) << "trial=" << trial;
    if (got == SolveResult::kSat) {
      for (const auto& c : clauses) {
        bool sat = false;
        for (Lit l : c) sat |= (s.ModelValue(VarOf(l)) != IsNegated(l));
        EXPECT_TRUE(sat);
      }
    }
  }
}

// --- Assumption-trail reuse (trail saving across Solve calls). ---

/// True iff the model of `s` satisfies every clause and every assumption.
void CheckModel(const Solver& s, const std::vector<std::vector<Lit>>& clauses,
                const std::vector<Lit>& assumptions) {
  for (const auto& c : clauses) {
    bool sat = false;
    for (Lit l : c) sat |= (s.ModelValue(VarOf(l)) != IsNegated(l));
    EXPECT_TRUE(sat);
  }
  for (Lit l : assumptions) {
    EXPECT_TRUE(s.ModelValue(VarOf(l)) != IsNegated(l));
  }
}

TEST(SatTrailReuseTest, AgreesWithClassicAndFreshAcrossIncrementalSequences) {
  // The equivalence property: over random incremental sequences — clause
  // additions interleaved with Solve calls whose assumption vectors evolve by
  // small tail deltas (the μ descent shape) — the trail-reusing solver and a
  // from-scratch solver per query agree on SAT/UNSAT, and every reported
  // model checks. (The fresh solver is the reference; the classic twin that
  // reset to level 0 on every call is retired.) Across the trials the solver
  // must actually have reused levels, or the test is vacuous.
  uint64_t total_reused = 0;
  for (int trial = 0; trial < 25; ++trial) {
    std::mt19937_64 rng(static_cast<uint64_t>(trial) * 104729 + 7);
    constexpr int kVars = 12;
    std::uniform_int_distribution<int> var(0, kVars - 1);
    std::bernoulli_distribution sign(0.5);
    std::uniform_int_distribution<int> mutate(0, 2);

    Solver reusing;
    for (int i = 0; i < kVars; ++i) reusing.NewVar();
    std::vector<std::vector<Lit>> clauses;
    auto add_clause = [&](const std::vector<Lit>& c) {
      clauses.push_back(c);
      reusing.AddClause(c);
    };
    for (int c = 0; c < 30; ++c) {
      add_clause({MkLit(var(rng), sign(rng)), MkLit(var(rng), sign(rng)),
                  MkLit(var(rng), sign(rng))});
    }

    // Assumption pins over distinct variables, mutated mostly at the tail so
    // consecutive vectors share prefixes.
    std::vector<Lit> assumptions;
    for (int v = 0; v < 5; ++v) assumptions.push_back(MkLit(v, sign(rng)));
    for (int round = 0; round < 12; ++round) {
      switch (mutate(rng)) {
        case 0:  // Flip the last pin.
          if (!assumptions.empty()) assumptions.back() = Negate(assumptions.back());
          break;
        case 1:  // Append a pin.
          assumptions.push_back(MkLit(var(rng), sign(rng)));
          break;
        default:  // Drop the tail pin.
          if (!assumptions.empty()) assumptions.pop_back();
          break;
      }
      SolveResult rr = reusing.Solve(assumptions);
      // Cross-check against a from-scratch solver over the same clause set.
      Solver fresh;
      for (int i = 0; i < kVars; ++i) fresh.NewVar();
      for (const auto& c : clauses) fresh.AddClause(c);
      EXPECT_EQ(fresh.Solve(assumptions), rr)
          << "trial " << trial << " round " << round;
      if (rr == SolveResult::kSat) CheckModel(reusing, clauses, assumptions);
      // Occasionally grow the formula between solves — with a retained trail
      // this exercises the trail-aware AddClause placement.
      if (round % 3 == 1) {
        add_clause({MkLit(var(rng), sign(rng)), MkLit(var(rng), sign(rng))});
      }
    }
    total_reused += reusing.stats().reused_assumption_levels;
  }
  EXPECT_GT(total_reused, 0u);
}

TEST(SatTrailReuseTest, ReusesSharedPrefixAndSavesPropagations) {
  // A long implication spine pinned by assumptions: re-solving with only the
  // tail assumption changed must retain every shared level (and the propagated
  // chain literals behind them) instead of re-propagating from scratch.
  Solver s;
  constexpr int kChain = 50;
  std::vector<Var> v;
  for (int i = 0; i < kChain; ++i) v.push_back(s.NewVar());
  Var tail0 = s.NewVar(), tail1 = s.NewVar();
  for (int i = 0; i + 1 < kChain; ++i) {
    s.AddClause({MkLit(v[static_cast<size_t>(i)], true),
                 MkLit(v[static_cast<size_t>(i + 1)])});
  }
  std::vector<Lit> assumptions = {MkLit(v[0]), MkLit(tail0)};
  ASSERT_EQ(s.Solve(assumptions), SolveResult::kSat);
  EXPECT_EQ(s.stats().reused_assumption_levels, 0u);
  // Same prefix (v[0] pin with its whole propagated chain), new tail.
  assumptions.back() = MkLit(tail1);
  ASSERT_EQ(s.Solve(assumptions), SolveResult::kSat);
  EXPECT_EQ(s.stats().reused_assumption_levels, 1u);
  // The reused v[0] level carries the chain: ≥ kChain literals not re-enqueued.
  EXPECT_GE(s.stats().saved_propagations, static_cast<uint64_t>(kChain));
  for (int i = 0; i < kChain; ++i) {
    EXPECT_TRUE(s.ModelValue(v[static_cast<size_t>(i)]));
  }
  // Identical vector: both levels reused.
  ASSERT_EQ(s.Solve(assumptions), SolveResult::kSat);
  EXPECT_EQ(s.stats().reused_assumption_levels, 3u);
}

TEST(SatTrailReuseTest, ResetClearsRetainedTrailAndReuseState) {
  auto run_chain = [](Solver* s) {
    std::vector<Var> vars;
    for (int i = 0; i < 6; ++i) vars.push_back(s->NewVar());
    s->AddClause({MkLit(vars[0], true), MkLit(vars[1])});
    s->AddClause({MkLit(vars[1], true), MkLit(vars[2])});
    std::vector<SolveResult> results;
    results.push_back(s->Solve({MkLit(vars[0]), MkLit(vars[3])}));
    results.push_back(s->Solve({MkLit(vars[0]), MkLit(vars[3], true)}));
    results.push_back(s->Solve({MkLit(vars[0]), MkLit(vars[3], true),
                                MkLit(vars[4])}));
    return results;
  };
  Solver s;
  std::vector<SolveResult> first = run_chain(&s);
  EXPECT_GT(s.stats().reused_assumption_levels, 0u);
  s.Reset();
  // Reset drops trail, stats and the saved vector: the replay behaves exactly
  // like the first run, with no stale reuse carried in.
  EXPECT_EQ(s.stats().reused_assumption_levels, 0u);
  std::vector<SolveResult> second = run_chain(&s);
  EXPECT_EQ(first, second);
}

TEST(SatTrailReuseTest, InitFromFrozenClearsRetainedTrailAndReuseState) {
  // Freeze an encoded prefix, fork it into a solver, run an assumption
  // chain, then re-fork: the replay must match solve for solve, and the first
  // solve after the re-fork must not reuse the (dead) previous trail.
  Solver base;
  Var a = base.NewVar(), b = base.NewVar(), c = base.NewVar();
  base.AddClause({MkLit(a, true), MkLit(b)});
  base.AddClause({MkLit(b, true), MkLit(c)});
  Solver::Frozen frozen;
  base.Freeze(&frozen);

  Solver s;
  auto chain = [&](Solver* solver) {
    std::vector<SolveResult> results;
    results.push_back(solver->Solve({MkLit(a)}));
    results.push_back(solver->Solve({MkLit(a), MkLit(c)}));
    results.push_back(solver->Solve({MkLit(a), MkLit(c, true)}));
    return results;
  };
  s.InitFromFrozen(frozen);
  std::vector<SolveResult> first = chain(&s);
  EXPECT_EQ(first, (std::vector<SolveResult>{SolveResult::kSat,
                                             SolveResult::kSat,
                                             SolveResult::kUnsat}));
  uint64_t reused_after_first = s.stats().reused_assumption_levels;
  EXPECT_GT(reused_after_first, 0u);

  s.InitFromFrozen(frozen);
  EXPECT_EQ(s.stats().reused_assumption_levels, 0u);
  EXPECT_EQ(s.Solve({MkLit(a)}), SolveResult::kSat);
  // No stale last-assumptions: the re-forked solver starts from scratch.
  EXPECT_EQ(s.stats().reused_assumption_levels, 0u);
  EXPECT_EQ(s.Solve({MkLit(a), MkLit(c)}), SolveResult::kSat);
  EXPECT_EQ(s.stats().reused_assumption_levels, 1u);
  EXPECT_EQ(s.Solve({MkLit(a), MkLit(c, true)}), SolveResult::kUnsat);
}

TEST(SatTrailReuseTest, GuardedDescentPatternWithBlockingClauses) {
  // The μ engine's exact call shape under reuse: solve under pins + a fresh
  // activation literal placed last, add blocking/guard clauses while the trail
  // is retained, retire guards late via units. Enumerating all models of
  // (x0 ∨ x1) ∧ (x2) this way must visit each assignment exactly once.
  Solver s;
  Var x0 = s.NewVar(), x1 = s.NewVar(), x2 = s.NewVar();
  s.AddClause({MkLit(x0), MkLit(x1)});
  s.AddClause({MkLit(x2)});
  int models = 0;
  std::vector<Lit> block;
  while (s.Solve({MkLit(x2)}) == SolveResult::kSat) {
    ++models;
    ASSERT_LE(models, 3);  // Exactly the 3 satisfying assignments of (x0|x1).
    EXPECT_TRUE(s.ModelValue(x2));
    block.clear();
    block.push_back(MkLit(x0, s.ModelValue(x0)));
    block.push_back(MkLit(x1, s.ModelValue(x1)));
    s.AddClause(block);  // Added with the assumption trail retained.
  }
  EXPECT_EQ(models, 3);
}

}  // namespace
}  // namespace kbt::sat
