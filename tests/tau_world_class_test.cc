/// \file
/// τ's world classes: worlds that share an active domain and agree on every
/// atom the grounding mentions share one μ computation. Checked against an
/// oracle that bypasses Tau entirely — UnionAll of plain Mu per flat
/// World(i) — across strategies, thread counts and the serving layer's cache
/// plumbing, with exact `shared_worlds` counts and TauStats that do not
/// depend on the thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <string>

#include "core/kbt.h"
#include "eval/model_check.h"
#include "exec/cnf_cache.h"
#include "exec/ground_cache.h"
#include "exec/pool.h"
#include "exec/scratch.h"
#include "sat/solver.h"
#include "testutil.h"

namespace kbt {
namespace {

using testutil::RandomDatabase;
using testutil::RandomSentenceGenerator;

/// The specification τ: plain μ on every flat world, unioned.
StatusOr<Knowledgebase> Oracle(const Formula& phi, const Knowledgebase& kb,
                               const MuOptions& mu) {
  std::vector<Knowledgebase> parts;
  for (size_t i = 0; i < kb.size(); ++i) {
    KBT_ASSIGN_OR_RETURN(Knowledgebase part, Mu(phi, kb.World(i), mu));
    parts.push_back(std::move(part));
  }
  return Knowledgebase::UnionAll(std::move(parts));
}

/// Every TauStats field except threads_used.
void ExpectSameStats(const TauStats& a, const TauStats& b,
                     const std::string& where) {
  EXPECT_EQ(a.input_databases, b.input_databases) << where;
  EXPECT_EQ(a.output_databases, b.output_databases) << where;
  EXPECT_EQ(a.ground_cache_hits, b.ground_cache_hits) << where;
  EXPECT_EQ(a.ground_cache_misses, b.ground_cache_misses) << where;
  EXPECT_EQ(a.cnf_cache_hits, b.cnf_cache_hits) << where;
  EXPECT_EQ(a.cnf_cache_misses, b.cnf_cache_misses) << where;
  EXPECT_EQ(a.shared_worlds, b.shared_worlds) << where;
  EXPECT_EQ(a.mu.used, b.mu.used) << where;
  EXPECT_EQ(a.mu.minimal_models, b.mu.minimal_models) << where;
  EXPECT_EQ(a.mu.candidates_examined, b.mu.candidates_examined) << where;
  EXPECT_EQ(a.mu.ground_nodes, b.mu.ground_nodes) << where;
  EXPECT_EQ(a.mu.ground_atoms, b.mu.ground_atoms) << where;
  EXPECT_EQ(a.mu.sat_solve_calls, b.mu.sat_solve_calls) << where;
  EXPECT_EQ(a.mu.sat_conflicts, b.mu.sat_conflicts) << where;
  EXPECT_EQ(a.mu.sat_decisions, b.mu.sat_decisions) << where;
  EXPECT_EQ(a.mu.sat_reused_levels, b.mu.sat_reused_levels) << where;
  EXPECT_EQ(a.mu.sat_saved_propagations, b.mu.sat_saved_propagations)
      << where;
  EXPECT_EQ(a.mu.sat_interrupt_checks, b.mu.sat_interrupt_checks) << where;
  EXPECT_EQ(a.mu.sat_budget_trips, b.mu.sat_budget_trips) << where;
  EXPECT_EQ(a.mu.datalog_rounds, b.mu.datalog_rounds) << where;
  EXPECT_EQ(a.mu.datalog_derived_tuples, b.mu.datalog_derived_tuples)
      << where;
}

/// The per-sentence caches, pool and session solver/scratch serve::Server
/// lends a read's τ step.
struct ServingResources {
  exec::GroundingCache ground;
  exec::CnfCache cnf;
  exec::ThreadPool pool{4};
  sat::Solver solver;
  exec::WorldScratch scratch;

  void Lend(TauOptions* options) {
    options->ground_cache = &ground;
    options->cnf_cache = &cnf;
    options->pool = &pool;
    options->solver = &solver;
    options->scratch = &scratch;
  }
};

/// A kb whose worlds repeat a few patterns over the relations the random
/// sentences mention (P, Q) and differ in U, which no sentence mentions. U's
/// values join the active domain, so a U holding `d` moves its world to a
/// second domain.
Knowledgebase RepeatingPatternKb(std::mt19937_64* rng) {
  Schema schema = *Schema::Of({{"Dom", 1}, {"P", 1}, {"Q", 2}, {"U", 1}});
  std::uniform_int_distribution<int> pattern_count(1, 3);
  std::vector<Database> patterns;
  for (int p = pattern_count(*rng); p > 0; --p) {
    patterns.push_back(*RandomDatabase(rng).ExtendTo(schema));
  }
  const std::vector<std::string> u_values = {"a", "b", "c", "d"};
  std::uniform_int_distribution<size_t> pick(0, patterns.size() - 1);
  std::bernoulli_distribution coin(0.5);
  std::bernoulli_distribution rare(0.15);
  std::vector<Database> dbs;
  for (int w = 0; w < 12; ++w) {
    Relation::Builder u(1);
    for (const std::string& v : u_values) {
      if (v == "d" ? rare(*rng) : coin(*rng)) u.Append({Name(v)});
    }
    dbs.push_back(*patterns[pick(*rng)].WithRelation("U", u.Build()));
  }
  return *Knowledgebase::FromDatabases(std::move(dbs));
}

TEST(TauWorldClassTest, MatchesPerWorldMuOracleOnRepeatedPatterns) {
  std::mt19937_64 rng(20261016);
  RandomSentenceGenerator gen(&rng, /*new_relation_prob=*/0.3);
  uint64_t shared_total = 0;
  int compared = 0;
  for (int iter = 0; iter < 24; ++iter) {
    Knowledgebase kb = RepeatingPatternKb(&rng);
    Formula phi = gen.Generate(3);
    for (MuStrategy strategy :
         {MuStrategy::kAuto, MuStrategy::kSat, MuStrategy::kReference}) {
      MuOptions mu;
      mu.strategy = strategy;
      StatusOr<Knowledgebase> expected = Oracle(phi, kb, mu);
      for (bool serving : {false, true}) {
        TauStats stats_at[2];
        for (int t = 0; t < 2; ++t) {
          const size_t threads = t == 0 ? 1 : 4;
          const std::string where =
              "iter " + std::to_string(iter) + " strategy " +
              MuStrategyName(strategy) + " serving " +
              std::to_string(serving) + " threads " + std::to_string(threads);
          ServingResources resources;
          TauOptions options;
          options.mu = mu;
          options.threads = threads;
          if (serving) resources.Lend(&options);
          StatusOr<Knowledgebase> got = Tau(phi, kb, options, &stats_at[t]);
          ASSERT_EQ(expected.ok(), got.ok()) << where << ": " << got.status();
          if (!expected.ok()) {
            EXPECT_EQ(expected.status().code(), got.status().code()) << where;
            continue;
          }
          EXPECT_EQ(*expected, *got) << where;
          ++compared;
          if (serving) {
            // A second read through the now-warm caches: every lookup hits
            // and the answer stays the oracle's.
            TauStats warm;
            StatusOr<Knowledgebase> again = Tau(phi, kb, options, &warm);
            ASSERT_TRUE(again.ok()) << where << ": " << again.status();
            EXPECT_EQ(*expected, *again) << where;
            EXPECT_EQ(warm.ground_cache_misses + warm.cnf_cache_misses, 0u)
                << where;
            EXPECT_EQ(warm.shared_worlds, stats_at[t].shared_worlds) << where;
          }
        }
        if (expected.ok()) {
          ExpectSameStats(stats_at[0], stats_at[1],
                          "iter " + std::to_string(iter) + " strategy " +
                              MuStrategyName(strategy));
          shared_total += stats_at[0].shared_worlds;
        }
      }
    }
  }
  EXPECT_GT(compared, 0);
  EXPECT_GT(shared_total, 0u);  // The patterns do repeat.
}

// --- The read_cold shape: 16 worlds over Dom/R/P/Q told apart by P. ---

std::string C(int i) { return "n" + std::to_string(i); }

Relation Unary(const std::vector<int>& members) {
  Relation::Builder b(1);
  for (int m : members) b.Append({Name(C(m))});
  return b.Build();
}

/// Dom = n0..n11 (plus `extra_dom(w)` in world w), one fixed R of 36 edges
/// and one fixed Q; world w holds P = the set bits of w over n0..n3, so
/// P(n2) holds in exactly half of the worlds.
Knowledgebase ReadColdKb(const std::function<std::vector<int>(int)>& extra_dom =
                             [](int) { return std::vector<int>{}; }) {
  constexpr int kDomain = 12;
  std::mt19937_64 rng(12);
  Schema schema = *Schema::Of({{"Dom", 1}, {"R", 2}, {"P", 1}, {"Q", 1}});
  std::vector<int> cells(kDomain * kDomain);
  for (int i = 0; i < kDomain * kDomain; ++i) cells[i] = i;
  std::shuffle(cells.begin(), cells.end(), rng);
  Relation::Builder r(2);
  for (int k = 0; k < 36; ++k) {
    r.Append({Name(C(cells[k] / kDomain)), Name(C(cells[k] % kDomain))});
  }
  Relation edges = r.Build();
  Relation q = Unary({0, 2, 4, 6, 8, 10});
  std::vector<Database> dbs;
  for (int w = 0; w < 16; ++w) {
    std::vector<int> dom;
    for (int i = 0; i < kDomain; ++i) dom.push_back(i);
    for (int extra : extra_dom(w)) dom.push_back(extra);
    std::vector<int> p;
    for (int bit = 0; bit < 4; ++bit) {
      if (((w >> bit) & 1) != 0) p.push_back(bit);
    }
    dbs.push_back(*Database::Create(schema, {Unary(dom), edges, Unary(p), q}));
  }
  return *Knowledgebase::FromDatabases(std::move(dbs));
}

/// Runs τ at threads 1 and 4 (each with serving-style external caches too),
/// checks every run against the oracle and returns the threads-1 stats after
/// checking they equal the threads-4 ones.
TauStats CheckTau(const Formula& phi, const Knowledgebase& kb,
                  const MuOptions& mu) {
  StatusOr<Knowledgebase> expected = Oracle(phi, kb, mu);
  EXPECT_TRUE(expected.ok()) << expected.status();
  TauStats first;
  for (bool serving : {false, true}) {
    TauStats stats_at[2];
    for (int t = 0; t < 2; ++t) {
      ServingResources resources;
      TauOptions options;
      options.mu = mu;
      options.threads = t == 0 ? 1 : 4;
      if (serving) resources.Lend(&options);
      StatusOr<Knowledgebase> got = Tau(phi, kb, options, &stats_at[t]);
      EXPECT_TRUE(got.ok()) << got.status();
      if (got.ok() && expected.ok()) {
        EXPECT_EQ(*expected, *got) << "serving " << serving << " t " << t;
      }
    }
    ExpectSameStats(stats_at[0], stats_at[1],
                    "serving " + std::to_string(serving));
    if (!serving) first = stats_at[0];
  }
  return first;
}

TEST(TauWorldClassTest, ReadColdWorldsDifferingOnlyInUnmentionedPShareOneMu) {
  Knowledgebase kb = ReadColdKb();
  ASSERT_EQ(kb.size(), 16u);
  Formula phi = *ParseSentence("exists x: R(n0, x) & S(x, n1) & !Q(n2)");
  for (MuStrategy strategy : {MuStrategy::kAuto, MuStrategy::kSat}) {
    MuOptions mu;
    mu.strategy = strategy;
    TauStats stats = CheckTau(phi, kb, mu);
    EXPECT_EQ(stats.shared_worlds, 15u);
    EXPECT_EQ(stats.mu.used, MuStrategy::kSat);
    // One μ ran: its model count is the whole call's.
    MuStats one;
    ASSERT_TRUE(Mu(phi, kb.World(0), mu, &one).ok());
    EXPECT_EQ(stats.mu.minimal_models, one.minimal_models);
    EXPECT_EQ(stats.mu.sat_solve_calls, one.sat_solve_calls);
  }
}

TEST(TauWorldClassTest, ReadColdWorldsSplitIntoTwoClassesOnOneMentionedAtom) {
  Knowledgebase kb = ReadColdKb();
  Formula phi = *ParseSentence(
      "exists x: (R(n0, x) | Q(x)) & S(x, n1) & !P(n2)");
  for (MuStrategy strategy : {MuStrategy::kAuto, MuStrategy::kSat}) {
    MuOptions mu;
    mu.strategy = strategy;
    EXPECT_EQ(CheckTau(phi, kb, mu).shared_worlds, 14u);
  }
}

TEST(TauWorldClassTest, WorldsOverDifferentActiveDomainsShareNothing) {
  // World w adds n(12 + w) to Dom: sixteen domains, sixteen groundings.
  Knowledgebase kb = ReadColdKb([](int w) { return std::vector<int>{12 + w}; });
  Formula phi = *ParseSentence("exists x: R(n0, x) & S(x, n1) & !Q(n2)");
  MuOptions mu;
  mu.strategy = MuStrategy::kSat;
  TauStats stats = CheckTau(phi, kb, mu);
  EXPECT_EQ(stats.shared_worlds, 0u);
  EXPECT_EQ(stats.cnf_cache_misses, 16u);
  EXPECT_EQ(stats.cnf_cache_hits, 0u);
}

TEST(TauWorldClassTest, GroundInsertRunsOneReferenceMuPerPattern) {
  // kAuto resolves a ground sentence to reference μ; its classes are the
  // distinct values of the two atoms it mentions.
  Knowledgebase kb = ReadColdKb();
  Formula phi = *ParseSentence("P(n1) & !P(n3)");
  std::set<std::pair<bool, bool>> patterns;
  for (int w = 0; w < 16; ++w) patterns.insert({(w & 2) != 0, (w & 8) != 0});
  TauStats stats = CheckTau(phi, kb, MuOptions());
  EXPECT_EQ(stats.mu.used, MuStrategy::kReference);
  EXPECT_EQ(stats.shared_worlds, 16u - patterns.size());
  EXPECT_EQ(stats.mu.candidates_examined, patterns.size() * 4);
}

TEST(TauWorldClassTest, DatalogAndDefinitionalMuStayPerWorld) {
  Knowledgebase kb = ReadColdKb();
  for (const char* text :
       {"forall x, y: R(x, y) -> T(x, y)",
        "forall x: (exists y: R(x, y) & Q(y)) <-> D(x)"}) {
    Formula phi = *ParseSentence(text);
    TauStats stats = CheckTau(phi, kb, MuOptions());
    EXPECT_TRUE(stats.mu.used == MuStrategy::kDatalog ||
                stats.mu.used == MuStrategy::kDefinitional)
        << text;
    EXPECT_EQ(stats.shared_worlds, 0u) << text;
  }
}

TEST(TauWorldClassTest, DeadlineAndBudgetFailTheSameAtOneAndFourThreads) {
  Knowledgebase kb = ReadColdKb();
  Formula phi = *ParseSentence("exists x: R(n0, x) & S(x, n1) & !Q(n2)");
  // Precondition for the budget case: the class's μ needs several conflicts.
  MuOptions sat;
  sat.strategy = MuStrategy::kSat;
  TauStats unlimited;
  ASSERT_TRUE(Tau(phi, kb, sat, &unlimited).ok());
  ASSERT_GT(unlimited.mu.sat_conflicts, 1u);

  CancelToken expired;
  expired.set_deadline_after(std::chrono::milliseconds(-1));
  for (bool serving : {false, true}) {
    for (size_t threads : {1u, 4u}) {
      ServingResources resources;
      TauOptions options;
      options.mu.strategy = MuStrategy::kSat;
      options.threads = threads;
      if (serving) resources.Lend(&options);

      TauOptions deadline = options;
      deadline.mu.cancel = &expired;
      StatusOr<Knowledgebase> late = Tau(phi, kb, deadline);
      ASSERT_FALSE(late.ok()) << "threads " << threads;
      EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);

      TauOptions budget = options;
      budget.mu.sat_conflict_budget = 1;
      StatusOr<Knowledgebase> tripped = Tau(phi, kb, budget);
      ASSERT_FALSE(tripped.ok()) << "threads " << threads;
      EXPECT_EQ(tripped.status().code(), StatusCode::kDeadlineExceeded);

      // The trip left the borrowed solver and caches usable.
      StatusOr<Knowledgebase> healthy = Tau(phi, kb, options);
      ASSERT_TRUE(healthy.ok()) << healthy.status();
    }
  }
}

TEST(TauWorldClassTest, CounterfactualsMatchAFullFoldOverOracleWorlds) {
  // The consequent check stops at the first world that settles the answer;
  // the answer must equal folding Satisfies over every oracle world.
  Knowledgebase kb = ReadColdKb();
  Formula antecedent = *ParseSentence(
      "exists x: (R(n0, x) | Q(x)) & S(x, n1) & !P(n2)");
  StatusOr<Knowledgebase> worlds = Oracle(antecedent, kb, MuOptions());
  ASSERT_TRUE(worlds.ok()) << worlds.status();
  for (const char* text :
       {"P(n0)", "!P(n2)", "exists x: S(x, n1)", "S(n0, n1)", "Q(n1)",
        "exists x: P(x) & S(x, n1)", "forall x: S(x, n1) -> Q(x)"}) {
    Formula consequent = *ParseSentence(text);
    bool all = true;
    bool some = false;
    for (size_t i = 0; i < worlds->size(); ++i) {
      StatusOr<bool> holds = Satisfies(worlds->World(i), consequent);
      ASSERT_TRUE(holds.ok()) << holds.status();
      all = all && *holds;
      some = some || *holds;
    }
    StatusOr<bool> necessarily = NestedCounterfactual(
        kb, {antecedent}, consequent, Modality::kNecessarily);
    StatusOr<bool> possibly = NestedCounterfactual(
        kb, {antecedent}, consequent, Modality::kPossibly);
    ASSERT_TRUE(necessarily.ok()) << necessarily.status();
    ASSERT_TRUE(possibly.ok()) << possibly.status();
    EXPECT_EQ(*necessarily, all) << text;
    EXPECT_EQ(*possibly, some) << text;
  }
}

}  // namespace
}  // namespace kbt
