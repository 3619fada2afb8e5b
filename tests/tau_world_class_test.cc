/// \file
/// τ's world classes: the grounding's root splits into atom-disjoint
/// components, and worlds that share an active domain and agree on every atom
/// of a component share that component's μ computation. Checked against the
/// oracle that bypasses Tau entirely (testutil::OracleTau: UnionAll of plain
/// Mu per flat World(i)) across strategies, thread counts and the serving
/// layer's cache plumbing, with exact `shared_worlds` and `mu_classes` counts
/// and TauStats that do not depend on the thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>

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

using testutil::OracleHolds;
using testutil::OracleTau;
using testutil::RandomDatabase;
using testutil::RandomSentenceGenerator;

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
  EXPECT_EQ(a.mu_classes, b.mu_classes) << where;
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
      StatusOr<Knowledgebase> expected = OracleTau(phi, kb, mu);
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

/// A random formula over `atoms` (ground atom texts) of depth at most
/// `depth`.
std::string RandomOver(const std::vector<std::string>& atoms, int depth,
                       std::mt19937_64* rng) {
  std::bernoulli_distribution coin(0.5);
  if (depth == 0 || coin(*rng)) {
    std::uniform_int_distribution<size_t> pick(0, atoms.size() - 1);
    return (coin(*rng) ? "!" : "") + atoms[pick(*rng)];
  }
  return "(" + RandomOver(atoms, depth - 1, rng) +
         (coin(*rng) ? " & " : " | ") + RandomOver(atoms, depth - 1, rng) + ")";
}

/// A conjunction of 1–6 parts over pairwise disjoint ground atoms of P, Q
/// (old) and N, M (new): random formulas, parts with two minimal models,
/// unsatisfiable parts, parts over new relations only, and pairs of parts
/// that share one atom and so must stay one component.
std::string SplitSentence(std::mt19937_64* rng) {
  std::vector<std::string> old_atoms, new_atoms;
  for (const std::string& x : testutil::TestConstants()) {
    old_atoms.push_back("P(" + x + ")");
    for (const std::string& y : testutil::TestConstants()) {
      old_atoms.push_back("Q(" + x + ", " + y + ")");
    }
    new_atoms.push_back("N(" + x + ")");
    new_atoms.push_back("M(" + x + ")");
  }
  std::shuffle(old_atoms.begin(), old_atoms.end(), *rng);
  std::shuffle(new_atoms.begin(), new_atoms.end(), *rng);
  auto take = [](std::vector<std::string>* pool, size_t n) {
    std::vector<std::string> out;
    while (out.size() < n && !pool->empty()) {
      out.push_back(pool->back());
      pool->pop_back();
    }
    return out;
  };
  std::uniform_int_distribution<int> part_count(1, 6);
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_int_distribution<size_t> width(1, 3);
  std::vector<std::string> parts;
  for (int p = part_count(*rng); p > 0; --p) {
    const int k = kind(*rng);
    if (k == 0) {  // Unsatisfiable: this world's μ, and so τ, is empty.
      std::vector<std::string> a = take(&old_atoms, 2);
      if (a.size() == 2) {
        parts.push_back("(" + a[0] + " | " + a[1] + ") & !" + a[0] + " & !" +
                        a[1]);
      }
    } else if (k <= 2) {  // New relations only.
      std::vector<std::string> a = take(&new_atoms, 2);
      if (a.size() == 2) parts.push_back("(" + a[0] + " | " + a[1] + ")");
    } else if (k <= 4) {  // Two minimal models where both atoms are false.
      std::vector<std::string> a = take(&old_atoms, 2);
      if (a.size() == 2) parts.push_back("(" + a[0] + " | " + a[1] + ")");
    } else if (k == 5) {  // Two parts sharing a[1]: one component.
      std::vector<std::string> a = take(&old_atoms, 3);
      if (a.size() == 3) {
        parts.push_back("(" + a[0] + " | " + a[1] + ")");
        parts.push_back("(!" + a[1] + " | " + a[2] + ")");
      }
    } else {
      std::vector<std::string> a = take(&old_atoms, width(*rng));
      if (!a.empty()) parts.push_back(RandomOver(a, 2, rng));
    }
  }
  if (parts.empty()) parts.push_back(take(&old_atoms, 1)[0]);
  std::string text = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) text += " & " + parts[i];
  return text;
}

TEST(TauWorldClassTest, SplitSentencesMatchPerWorldMuOracle) {
  std::mt19937_64 rng(20261017);
  int compared = 0;
  int split = 0;
  int products = 0;
  for (int iter = 0; iter < 32; ++iter) {
    Knowledgebase kb = RepeatingPatternKb(&rng);
    const std::string text = SplitSentence(&rng);
    Formula phi = *ParseSentence(text);
    for (MuStrategy strategy :
         {MuStrategy::kAuto, MuStrategy::kSat, MuStrategy::kReference}) {
      MuOptions mu;
      mu.strategy = strategy;
      StatusOr<Knowledgebase> expected = OracleTau(phi, kb, mu);
      ASSERT_TRUE(expected.ok()) << text << ": " << expected.status();
      for (bool serving : {false, true}) {
        TauStats stats_at[2];
        for (int t = 0; t < 2; ++t) {
          const size_t threads = t == 0 ? 1 : 4;
          const std::string where = text + " strategy " +
                                    MuStrategyName(strategy) + " serving " +
                                    std::to_string(serving) + " threads " +
                                    std::to_string(threads);
          ServingResources resources;
          TauOptions options;
          options.mu = mu;
          options.threads = threads;
          if (serving) resources.Lend(&options);
          StatusOr<Knowledgebase> got = Tau(phi, kb, options, &stats_at[t]);
          ASSERT_TRUE(got.ok()) << where << ": " << got.status();
          EXPECT_EQ(*expected, *got) << where;
          ++compared;
        }
        ExpectSameStats(stats_at[0], stats_at[1],
                        text + " strategy " + MuStrategyName(strategy));
        const TauStats& stats = stats_at[0];
        // More classes than worlds leading them: some world ran μ on
        // several components.
        if (stats.mu_classes > stats.input_databases - stats.shared_worlds) {
          ++split;
        }
        if (stats.mu.minimal_models > stats.mu_classes) ++products;
      }
    }
  }
  EXPECT_GT(compared, 0);
  EXPECT_GT(split, 0);
  EXPECT_GT(products, 0);  // Some class had several minimal models.
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
/// checking they equal the threads-4 ones; `served` (optional) receives the
/// threads-1 stats of the run with the serving resources lent.
TauStats CheckTau(const Formula& phi, const Knowledgebase& kb,
                  const MuOptions& mu, TauStats* served = nullptr) {
  StatusOr<Knowledgebase> expected = OracleTau(phi, kb, mu);
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
    if (serving && served != nullptr) *served = stats_at[0];
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
  // kAuto resolves a ground sentence to reference μ. P(n1) and !P(n3) share
  // no atom, so each is a component of its own, and the classes are each
  // component's distinct values: one reference μ over one atom apiece. A
  // world runs μ of its own when it is the first with some component's value.
  Knowledgebase kb = ReadColdKb();
  Formula phi = *ParseSentence("P(n1) & !P(n3)");
  std::set<std::pair<int, bool>> patterns;  // (component's atom, its value)
  std::set<int> leaders;
  for (int w = 0; w < 16; ++w) {
    for (int atom : {1, 3}) {
      if (patterns.insert({atom, ((w >> atom) & 1) != 0}).second) {
        leaders.insert(w);
      }
    }
  }
  TauStats stats = CheckTau(phi, kb, MuOptions());
  EXPECT_EQ(stats.mu.used, MuStrategy::kReference);
  EXPECT_EQ(stats.mu_classes, patterns.size());
  EXPECT_EQ(stats.shared_worlds, 16u - leaders.size());
  EXPECT_EQ(stats.mu.candidates_examined, patterns.size() * 2);
}

TEST(TauWorldClassTest, DefinitionalMuRunsOncePerBlock) {
  // kAuto resolves the definitional rule to the block route: no world
  // classes and no grounding, and per world the counters plain μ reports,
  // one minimal model and one candidate per definition.
  Knowledgebase kb = ReadColdKb();
  Formula phi = *ParseSentence("forall x: (exists y: R(x, y) & Q(y)) <-> D(x)");
  TauStats stats = CheckTau(phi, kb, MuOptions());
  EXPECT_EQ(stats.mu.used, MuStrategy::kDefinitional);
  EXPECT_EQ(stats.mu.minimal_models, kb.size());
  EXPECT_EQ(stats.mu.candidates_examined, kb.size());
  EXPECT_EQ(stats.shared_worlds, 0u);
  EXPECT_EQ(stats.mu_classes, 0u);
  EXPECT_EQ(stats.ground_cache_hits + stats.ground_cache_misses, 0u);
}

// --- Worlds whose active domains differ. ---

/// `worlds` distinct worlds over E/2, P/1 and the nullary F whose active
/// domains differ. The base's E lies on n0..n4 and its P is {n5}, n5's only
/// occurrence; each world flips one to three cells of E on n0..n4, of P on
/// n0..n7, or F. So a world may gain n6 or n7, lose n5 or a rare value of
/// n0..n4, or keep the base's domain, and many delete base facts the
/// sentences read.
Knowledgebase DomainShiftingKb(size_t worlds, std::mt19937_64* rng) {
  constexpr int kE = 5;
  constexpr int kP = 8;
  constexpr int kCells = kE * kE + kP + 1;  // E, P, then F.
  Schema schema = *Schema::Of({{"E", 2}, {"P", 1}, {"F", 0}});
  std::bernoulli_distribution coin(0.3);
  std::vector<bool> base(kCells);
  for (int c = 0; c < kE * kE; ++c) base[c] = coin(*rng);
  base[kE * kE + 5] = true;
  std::uniform_int_distribution<int> cell(0, kCells - 1);
  std::uniform_int_distribution<int> flips(1, 3);
  std::set<std::vector<bool>> seen;
  std::vector<Database> dbs;
  while (dbs.size() < worlds) {
    std::vector<bool> cells = base;
    for (int f = flips(*rng); f > 0; --f) cells[cell(*rng)].flip();
    if (!seen.insert(cells).second) continue;
    Relation::Builder e(2);
    Relation::Builder p(1);
    Relation::Builder f(0);
    for (int c = 0; c < kE * kE; ++c) {
      if (cells[c]) e.Append({Name(C(c / kE)), Name(C(c % kE))});
    }
    for (int c = 0; c < kP; ++c) {
      if (cells[kE * kE + c]) p.Append({Name(C(c))});
    }
    if (cells[kCells - 1]) f.Append(TupleView());
    dbs.push_back(
        *Database::Create(schema, {e.Build(), p.Build(), f.Build()}));
  }
  return *Knowledgebase::FromDatabases(std::move(dbs));
}

/// Distinct active domains B (values ∪ φ's constants) among kb's worlds.
size_t DistinctDomains(const Formula& phi, const Knowledgebase& kb) {
  std::set<std::vector<Value>> domains;
  for (size_t w = 0; w < kb.size(); ++w) {
    domains.insert(ActiveDomain(kb.World(w), phi));
  }
  return domains.size();
}

constexpr size_t kShiftingSizes[] = {1, 63, 64, 65, 130};

TEST(TauWorldClassTest, DefinitionalBlocksMatchPerWorldMuOracle) {
  // Definitional μ runs one masked evaluation of each body per block of 64
  // worlds, with quantifiers over each world's own domain. Neither the block
  // edges nor the width may show, and the counters are plain μ's summed
  // over the worlds.
  struct Case {
    const char* text;
    size_t definitions;
  };
  const Case cases[] = {
      // ↔ with ∃ and ¬.
      {"forall x: (exists y: E(x, y) & !E(y, x)) <-> D(x)", 1},
      // Two → definitions of one head, one projecting y away.
      {"(forall x, y: E(x, y) & !P(y) -> H(x)) & "
       "(forall x: P(x) & !F() -> H(x))",
       2},
      // ∀ in the body: ranges over each world's own domain.
      {"forall x: (forall y: P(y) -> E(x, y)) <-> A(x)", 1},
      // ∨ and =.
      {"forall x, y: (E(x, y) | x = y) & !E(y, x) <-> B(x, y)", 1},
      // A body true off the data (its answers are the domain itself), and a
      // nullary head over the constant n5, which some worlds lose.
      {"(forall x: !E(x, x) <-> N(x)) & "
       "((exists x: P(x) & !E(x, n5)) <-> Z())",
       2},
      // Constants n6 and n7, absent from the base, in a → definition.
      {"forall x: (P(x) | E(x, n6) | x = n7) -> K(x)", 1},
      // Horn: Datalog under kAuto, the block route under kDefinitional.
      {"forall x, y: E(x, y) & x != y -> G(y)", 1},
  };
  std::mt19937_64 rng(66);
  for (size_t worlds : kShiftingSizes) {
    Knowledgebase kb = DomainShiftingKb(worlds, &rng);
    ASSERT_EQ(kb.size(), worlds);
    if (worlds > 1) {
      ASSERT_GT(DistinctDomains(*ParseSentence("P(n0)"), kb), 1u) << worlds;
    }
    for (const Case& c : cases) {
      Formula phi = *ParseSentence(c.text);
      for (MuStrategy strategy :
           {MuStrategy::kAuto, MuStrategy::kDefinitional}) {
        const std::string where = std::string(c.text) + ", " +
                                  std::to_string(worlds) + " worlds, " +
                                  MuStrategyName(strategy);
        MuOptions mu;
        mu.strategy = strategy;
        MuStats plain;
        ASSERT_TRUE(Mu(phi, kb.World(0), mu, &plain).ok()) << where;
        TauStats stats = CheckTau(phi, kb, mu);
        EXPECT_EQ(stats.mu.used, plain.used) << where;
        if (plain.used != MuStrategy::kDefinitional) continue;
        EXPECT_EQ(stats.mu.minimal_models, worlds) << where;
        EXPECT_EQ(stats.mu.candidates_examined, worlds * c.definitions)
            << where;
        EXPECT_EQ(stats.shared_worlds, 0u) << where;
        EXPECT_EQ(stats.mu_classes, 0u) << where;
      }
    }
  }
}

TEST(TauWorldClassTest, DefinitionalBlocksFailOnAnExpiredDeadline) {
  std::mt19937_64 rng(67);
  Knowledgebase kb = DomainShiftingKb(130, &rng);
  Formula phi =
      *ParseSentence("forall x: (exists y: E(x, y) & !E(y, x)) <-> D(x)");
  CancelToken expired;
  expired.set_deadline_after(std::chrono::milliseconds(-1));
  for (MuStrategy strategy : {MuStrategy::kAuto, MuStrategy::kDefinitional}) {
    for (bool serving : {false, true}) {
      for (size_t threads : {1u, 4u}) {
        ServingResources resources;
        TauOptions options;
        options.mu.strategy = strategy;
        options.mu.cancel = &expired;
        options.threads = threads;
        if (serving) resources.Lend(&options);
        StatusOr<Knowledgebase> late = Tau(phi, kb, options);
        ASSERT_FALSE(late.ok()) << "threads " << threads;
        EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
      }
    }
  }
}

/// The world classes τ must find, computed from flat worlds: per world, B =
/// its active domain ∪ φ's constants, the grounding over B, and the world's
/// value on each of its parts' atoms read off World(w). `lookups` counts
/// τ's grounding lookups: one for domain0 (the base's values ∪ φ's
/// constants) when some world has it, plus one per world whose B differs.
struct ExpectedClasses {
  uint64_t classes = 0;
  uint64_t shared_worlds = 0;
  uint64_t domains = 0;
  uint64_t lookups = 0;
};

ExpectedClasses FlatWorldClasses(const Formula& phi, const Knowledgebase& kb) {
  std::map<std::vector<Value>, std::shared_ptr<const exec::CachedGrounding>>
      groundings;
  std::set<std::tuple<std::vector<Value>, size_t, std::vector<bool>>> seen;
  uint64_t leaders = 0;
  const std::vector<Value> domain0 = ActiveDomain(*kb.base(), phi);
  bool any_domain0 = false;
  uint64_t own_domains = 0;
  for (size_t w = 0; w < kb.size(); ++w) {
    Database world = kb.World(w);
    std::vector<Value> domain = ActiveDomain(world, phi);
    if (domain == domain0) {
      any_domain0 = true;
    } else {
      ++own_domains;
    }
    auto& g = groundings[domain];
    if (g == nullptr) {
      g = *exec::MakeCachedGrounding(phi, domain, GrounderOptions());
    }
    const size_t parts = std::max<size_t>(1, g->components.size());
    bool leads = false;
    for (size_t c = 0; c < parts; ++c) {
      const std::vector<int>& atoms =
          g->components.empty() ? g->mentioned : g->components[c].atoms;
      std::vector<bool> bits;
      for (int id : atoms) {
        const GroundAtom& atom = g->grounding.atoms.AtomOf(id);
        const Relation* r = world.FindRelation(atom.relation);
        bits.push_back(r != nullptr && r->Contains(atom.tuple));
      }
      leads = seen.insert({domain, c, bits}).second || leads;
    }
    leaders += leads;
  }
  return ExpectedClasses{seen.size(), kb.size() - leaders, groundings.size(),
                         own_domains + (any_domain0 ? 1 : 0)};
}

/// `kb`, then two subsets on which the calling thread's scan for domain0
/// (the base's values ∪ φ's constants) computes every domain it reads: the
/// worlds whose domain is not domain0, and those before kb's last world of
/// domain0 followed by that world. Subsets that are empty or all of kb are
/// left out.
std::vector<Knowledgebase> WithLateDomain0(const Formula& phi,
                                           const Knowledgebase& kb) {
  const std::vector<Value> domain0 = ActiveDomain(*kb.base(), phi);
  std::vector<size_t> other;
  std::vector<size_t> last;
  for (size_t w = 0; w < kb.size(); ++w) {
    if (ActiveDomain(kb.World(w), phi) != domain0) {
      other.push_back(w);
    } else {
      last = other;
      last.push_back(w);
    }
  }
  std::vector<Knowledgebase> kbs = {kb};
  for (const std::vector<size_t>* worlds : {&other, &last}) {
    if (!worlds->empty() && worlds->size() < kb.size()) {
      kbs.push_back(kb.SelectWorlds(*worlds));
    }
  }
  return kbs;
}

TEST(TauWorldClassTest, GroundedRoutesKeyWorldsOfDifferingDomains) {
  // Pass A keys each world from its overlay: B from the base's value counts
  // and the base's bits with the world's delta atoms flipped. The classes
  // and the shared worlds must be those of keying every flat world, and the
  // cache lookups one for domain0 plus one per world of another domain, also
  // where no world, or only the last, has domain0.
  struct Case {
    const char* text;
    std::vector<MuStrategy> strategies;
    bool sat;  ///< The route the strategies resolve to.
  };
  const Case cases[] = {
      // SAT, one component.
      {"exists x: E(n0, x) & !P(x) & S(x)",
       {MuStrategy::kAuto, MuStrategy::kSat},
       true},
      // SAT, one component per value of the world's domain.
      {"forall x: P(x) -> (S(x) | T(x))",
       {MuStrategy::kAuto, MuStrategy::kSat},
       true},
      // Reference: kAuto on a ground sentence, and kReference per
      // component.
      {"P(n6) & !E(n0, n1) & (F() | P(n2))", {MuStrategy::kAuto}, false},
      {"forall x: P(x) -> S(x)", {MuStrategy::kReference}, false},
  };
  std::mt19937_64 rng(68);
  for (size_t size : kShiftingSizes) {
    Knowledgebase shifting = DomainShiftingKb(size, &rng);
    for (const Case& c : cases) {
      Formula phi = *ParseSentence(c.text);
      const std::vector<Knowledgebase> kbs = WithLateDomain0(phi, shifting);
      if (size > 64) {
        ASSERT_EQ(kbs.size(), 3u) << c.text;
      }
      for (const Knowledgebase& kb : kbs) {
        const size_t worlds = kb.size();
        const ExpectedClasses expected = FlatWorldClasses(phi, kb);
        if (worlds > 1) {
          ASSERT_GT(expected.domains, 1u) << c.text;
        }
        for (MuStrategy strategy : c.strategies) {
          const std::string where = std::string(c.text) + ", " +
                                    std::to_string(worlds) + " of " +
                                    std::to_string(size) + " worlds, " +
                                    MuStrategyName(strategy);
          MuOptions mu;
          mu.strategy = strategy;
          TauStats served;
          TauStats stats = CheckTau(phi, kb, mu, &served);
          EXPECT_EQ(stats.mu.used,
                    c.sat ? MuStrategy::kSat : MuStrategy::kReference)
              << where;
          for (const TauStats* s : {&stats, &served}) {
            EXPECT_EQ(s->mu_classes, expected.classes) << where;
            EXPECT_EQ(s->shared_worlds, expected.shared_worlds) << where;
            // The lookups go to the CnfCache on the SAT route (a lone world
            // uses it only when the serving layer lends one), to the
            // GroundingCache otherwise; behind the CnfCache, one grounding
            // per domain.
            const bool cnf = c.sat && (worlds > 1 || s == &served);
            const uint64_t repeats = expected.lookups - expected.domains;
            EXPECT_EQ(s->cnf_cache_misses, cnf ? expected.domains : 0u)
                << where;
            EXPECT_EQ(s->cnf_cache_hits, cnf ? repeats : 0u) << where;
            EXPECT_EQ(s->ground_cache_misses, expected.domains) << where;
            EXPECT_EQ(s->ground_cache_hits, cnf ? 0u : repeats) << where;
          }
        }
      }
    }
  }
}

// --- A part wider than one key word. ---

/// Over n0..n6 every conjunct of the first ∀ mentions G(), so they form one
/// component of 49 E, 49 T and one G atom: 99 atoms, two key words. Each
/// P(x) → S(x) ∨ V(x) is a part of its own, so the sentence is not Horn and
/// kAuto takes the SAT route.
constexpr const char* kWideSplit =
    "(forall x, y: E(x, y) & G() -> T(x, y)) & "
    "(forall x: P(x) -> (S(x) | V(x)))";

TEST(TauWorldClassTest, PartsWiderThanOneWordKeyBothWords) {
  // Pass A records only the key bits a world's delta flips, and pass B
  // hashes a part only where those flips land. The wide part's second word
  // must count as much as its first: worlds that flip E atoms in either word
  // or both, several parts at once, only tuples the sentence does not
  // mention, or G itself, and worlds with a domain of their own, must give
  // the oracle's result and the classes, shared worlds and lookups of keying
  // every flat world.
  constexpr int kDomain = 7;
  Formula phi = *ParseSentence(kWideSplit);
  Schema schema =
      *Schema::Of({{"Dom", 1}, {"E", 2}, {"P", 1}, {"G", 0}, {"U", 1}});
  struct Spec {
    std::vector<bool> e = std::vector<bool>(kDomain * kDomain);
    std::vector<bool> p = std::vector<bool>(kDomain);
    bool g = true;
    std::vector<int> u;
    int extra = -1;  ///< A value outside n0..n6 that Dom holds, if any.
  };
  auto make = [&](const Spec& spec) {
    std::vector<int> dom;
    for (int i = 0; i < kDomain; ++i) dom.push_back(i);
    if (spec.extra >= 0) dom.push_back(spec.extra);
    Relation::Builder e(2);
    for (int c = 0; c < kDomain * kDomain; ++c) {
      if (spec.e[c]) e.Append({Name(C(c / kDomain)), Name(C(c % kDomain))});
    }
    std::vector<int> p;
    for (int i = 0; i < kDomain; ++i) {
      if (spec.p[i]) p.push_back(i);
    }
    Relation::Builder g(0);
    if (spec.g) g.Append(TupleView());
    return *Database::Create(schema, {Unary(dom), e.Build(), Unary(p),
                                      g.Build(), Unary(spec.u)});
  };
  std::mt19937_64 rng(69);
  std::bernoulli_distribution coin(0.4);
  Spec base;
  for (int c = 0; c < kDomain * kDomain; ++c) base.e[c] = coin(rng);
  for (int i = 0; i < kDomain; ++i) base.p[i] = coin(rng);
  auto base_db = std::make_shared<const Database>(make(base));

  // Which E cells the wide part keys in its first word and which in its
  // second, read off domain0's grounding.
  auto g = *exec::MakeCachedGrounding(phi, ActiveDomain(*base_db, phi),
                                      GrounderOptions());
  ASSERT_EQ(g->components.size(), 1u + kDomain);
  std::vector<int> cells_in_word[2];
  for (const exec::GroundingComponent& part : g->components) {
    if (part.atoms.size() <= 64) {
      EXPECT_LE(part.atoms.size(), 3u);
      continue;
    }
    ASSERT_LE(part.atoms.size(), 128u);
    uint32_t first_word = std::numeric_limits<uint32_t>::max();
    for (int id : part.atoms) {
      first_word = std::min(first_word, g->key_bit[id] / 64);
    }
    for (int id : part.atoms) {
      const GroundAtom& atom = g->grounding.atoms.AtomOf(id);
      if (atom.relation != Name("E")) continue;
      const int x = std::stoi(NameOf(atom.tuple[0]).substr(1));
      const int y = std::stoi(NameOf(atom.tuple[1]).substr(1));
      cells_in_word[g->key_bit[id] / 64 - first_word].push_back(x * kDomain +
                                                                y);
    }
  }
  ASSERT_FALSE(cells_in_word[0].empty());
  ASSERT_FALSE(cells_in_word[1].empty());

  // Cells come from the first few of each word, so patterns repeat; U, which
  // the sentence does not mention, tells repeated patterns' worlds apart.
  auto flip_in = [&](int word, Spec* spec) {
    const std::vector<int>& cells = cells_in_word[word];
    std::uniform_int_distribution<size_t> pick(
        0, std::min<size_t>(cells.size(), 4) - 1);
    spec->e[cells[pick(rng)]].flip();
  };
  std::uniform_int_distribution<int> value(0, kDomain - 1);
  std::vector<WorldOverlay> overlays;
  overlays.push_back(WorldOverlay());
  for (int w = 0; w < 70; ++w) {
    Spec spec = base;
    switch (w % 10) {
      case 0:
        flip_in(0, &spec);
        break;
      case 1:
        flip_in(1, &spec);
        break;
      case 2:
        flip_in(0, &spec);
        flip_in(1, &spec);
        break;
      case 3:
        flip_in(1, &spec);
        flip_in(1, &spec);
        break;
      case 4:  // Several parts: the wide one and one or two P parts.
        flip_in(1, &spec);
        spec.p[value(rng)].flip();
        spec.p[value(rng)].flip();
        break;
      case 5:  // Only U, below: no tuple the sentence mentions.
        break;
      case 6:  // G, which the wide part mentions.
        spec.g = false;
        if (w % 20 == 6) flip_in(1, &spec);
        break;
      case 7:  // Domains of their own.
        spec.extra = 7;
        flip_in(1, &spec);
        break;
      case 8:
        spec.extra = 8;
        flip_in(0, &spec);
        break;
      case 9:
        spec.p[value(rng)].flip();
        break;
    }
    spec.u = {w % kDomain, (w / kDomain) % kDomain};
    overlays.push_back(WorldOverlay::FromDiff(*base_db, make(spec)));
  }
  Knowledgebase kb =
      *Knowledgebase::FromBaseAndOverlays(base_db, std::move(overlays));
  const ExpectedClasses expected = FlatWorldClasses(phi, kb);
  ASSERT_GE(expected.domains, 3u);
  ASSERT_GT(expected.shared_worlds, 0u);
  for (MuStrategy strategy : {MuStrategy::kAuto, MuStrategy::kSat}) {
    const std::string where = MuStrategyName(strategy);
    MuOptions mu;
    mu.strategy = strategy;
    TauStats served;
    TauStats stats = CheckTau(phi, kb, mu, &served);
    EXPECT_EQ(stats.mu.used, MuStrategy::kSat) << where;
    for (const TauStats* s : {&stats, &served}) {
      EXPECT_EQ(s->mu_classes, expected.classes) << where;
      EXPECT_EQ(s->shared_worlds, expected.shared_worlds) << where;
      // The SAT route over several worlds looks up through the CnfCache,
      // and behind it grounds once per domain.
      EXPECT_EQ(s->cnf_cache_misses, expected.domains) << where;
      EXPECT_EQ(s->cnf_cache_hits, expected.lookups - expected.domains)
          << where;
      EXPECT_EQ(s->ground_cache_misses, expected.domains) << where;
      EXPECT_EQ(s->ground_cache_hits, 0u) << where;
    }
  }
}

TEST(TauWorldClassTest, OneLentScratchKeysCallsOfEverySize) {
  // Pass A's flips live in the calling thread's scratch, and a serving
  // session lends one scratch to every call it makes at width 1. Calls on
  // kbs of shrinking and growing sizes through one scratch must each give
  // the oracle's result and the stats of a call with a scratch of its own.
  std::mt19937_64 rng(71);
  std::vector<Knowledgebase> kbs;
  for (size_t worlds : {130u, 1u, 65u, 130u, 64u}) {
    kbs.push_back(DomainShiftingKb(worlds, &rng));
  }
  sat::Solver solver;
  exec::WorldScratch scratch;
  for (const char* text : {"exists x: E(n0, x) & !P(x) & S(x)",
                           "forall x: P(x) -> (S(x) | T(x))"}) {
    Formula phi = *ParseSentence(text);
    for (size_t k = 0; k < kbs.size(); ++k) {
      const std::string where = std::string(text) + ", kb " + std::to_string(k);
      StatusOr<Knowledgebase> expected = OracleTau(phi, kbs[k], MuOptions());
      ASSERT_TRUE(expected.ok()) << expected.status();
      TauOptions options;
      options.threads = 1;
      TauStats alone;
      StatusOr<Knowledgebase> own = Tau(phi, kbs[k], options, &alone);
      ASSERT_TRUE(own.ok()) << own.status();
      options.solver = &solver;
      options.scratch = &scratch;
      TauStats lent;
      StatusOr<Knowledgebase> got = Tau(phi, kbs[k], options, &lent);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*expected, *got) << where;
      ExpectSameStats(alone, lent, where);
    }
  }
}

// --- Datalog μ over 64-world blocks. ---

/// `worlds` distinct worlds over E/2, P/1 and the nullary F on n0..n5: one
/// random base and worlds one to three cells away from it, so the overlays
/// both add and delete facts that derivations read.
Knowledgebase FlippedWorldsKb(size_t worlds, std::mt19937_64* rng) {
  constexpr int kDomain = 6;
  constexpr int kCells = kDomain * kDomain + kDomain + 1;  // E, P, then F.
  Schema schema = *Schema::Of({{"E", 2}, {"P", 1}, {"F", 0}});
  std::bernoulli_distribution coin(0.4);
  std::vector<bool> base(kCells);
  for (int c = 0; c < kCells; ++c) base[c] = coin(*rng);
  std::uniform_int_distribution<int> cell(0, kCells - 1);
  std::uniform_int_distribution<int> flips(1, 3);
  std::set<std::vector<bool>> seen;
  std::vector<Database> dbs;
  while (dbs.size() < worlds) {
    std::vector<bool> cells = base;
    for (int f = flips(*rng); f > 0; --f) cells[cell(*rng)].flip();
    if (!seen.insert(cells).second) continue;
    Relation::Builder e(2);
    Relation::Builder p(1);
    Relation::Builder f(0);
    for (int c = 0; c < kDomain * kDomain; ++c) {
      if (cells[c]) e.Append({Name(C(c / kDomain)), Name(C(c % kDomain))});
    }
    for (int c = 0; c < kDomain; ++c) {
      if (cells[kDomain * kDomain + c]) p.Append({Name(C(c))});
    }
    if (cells[kCells - 1]) f.Append(TupleView());
    dbs.push_back(
        *Database::Create(schema, {e.Build(), p.Build(), f.Build()}));
  }
  return *Knowledgebase::FromDatabases(std::move(dbs));
}

constexpr const char* kClosure =
    "(forall x, y: E(x, y) -> T(x, y)) & "
    "(forall x, y, z: T(x, y) & E(y, z) -> T(x, z))";

TEST(TauWorldClassTest, DatalogBlocksMatchPerWorldMuOracle) {
  // Datalog μ runs one masked fixpoint per block of 64 worlds. Neither the
  // block edges (63, 64, 65, 130 and 200 worlds) nor the width may show:
  // τ equals the oracle, the stats agree at widths 1 and 4, and the derived
  // tuples are plain μ's, summed over the worlds.
  const std::vector<std::string> programs = {
      kClosure,
      // Non-linear recursion: two head literals in one body.
      "(forall x, y: E(x, y) -> T(x, y)) & "
      "(forall x, y, z: T(x, y) & T(y, z) -> T(x, z))",
      // Constants: a fact, a body constant and a head constant.
      "H(n3) & (forall x, y: H(x) & E(x, y) -> H(y)) & "
      "(forall x: E(n0, x) & H(x) -> A(x, n1))",
      // An inequality, a nullary head and a nullary body relation.
      "(forall x, y: E(x, y) & E(y, x) & x != y -> B(x, y)) & "
      "(forall x: E(x, x) -> Loop()) & (forall x: F() & P(x) -> G(x))",
      // Z is outside σ(kb) and no rule derives it: empty in every world.
      "(forall x: P(x) -> U(x)) & (forall x, y: U(x) & E(x, y) & Z(y) -> U(y))",
  };
  std::mt19937_64 rng(64);
  for (size_t worlds : {1u, 63u, 64u, 65u, 130u, 200u}) {
    Knowledgebase kb = FlippedWorldsKb(worlds, &rng);
    ASSERT_EQ(kb.size(), worlds);
    if (worlds > 1) {
      // Some world deletes a base E fact that the closure reads.
      bool deletes = false;
      for (const WorldOverlay& ov : kb.overlays()) {
        const RelationDelta* d = ov.FindDelta(0);
        deletes = deletes || (d != nullptr && !d->dels.empty());
      }
      ASSERT_TRUE(deletes) << worlds;
    }
    for (const std::string& text : programs) {
      Formula phi = *ParseSentence(text);
      for (MuStrategy strategy : {MuStrategy::kAuto, MuStrategy::kDatalog}) {
        const std::string where = text + ", " + std::to_string(worlds) +
                                  " worlds, " + MuStrategyName(strategy);
        MuOptions mu;
        mu.strategy = strategy;
        TauStats stats = CheckTau(phi, kb, mu);
        EXPECT_EQ(stats.mu.used, MuStrategy::kDatalog) << where;
        EXPECT_EQ(stats.mu.minimal_models, worlds) << where;
        EXPECT_EQ(stats.shared_worlds, 0u) << where;
        EXPECT_EQ(stats.mu_classes, 0u) << where;
        size_t derived = 0;
        for (size_t i = 0; i < kb.size(); ++i) {
          MuStats one;
          ASSERT_TRUE(Mu(phi, kb.World(i), mu, &one).ok()) << where;
          derived += one.datalog_derived_tuples;
        }
        EXPECT_EQ(stats.mu.datalog_derived_tuples, derived) << where;
      }
    }
  }
}

// --- Block outputs share repeated head relations. ---

/// 130 distinct worlds over Dom = n0..n7, E/2 and U/1: each world's E is one
/// of five patterns a few cells from one random base, and its U, which no
/// sentence below mentions, tells worlds of one pattern apart. So every
/// head relation repeats within each 64-world block and across blocks.
Knowledgebase RepeatedPatternBlocksKb() {
  constexpr int kDomain = 8;
  std::mt19937_64 rng(70);
  Schema schema = *Schema::Of({{"Dom", 1}, {"E", 2}, {"U", 1}});
  std::bernoulli_distribution coin(0.1);
  std::vector<bool> base(kDomain * kDomain);
  for (int c = 0; c < kDomain * kDomain; ++c) base[c] = coin(rng);
  std::uniform_int_distribution<int> cell(0, kDomain * kDomain - 1);
  std::vector<Relation> patterns;
  for (int k = 0; k < 5; ++k) {
    std::vector<bool> cells = base;
    for (int f = 0; f < 3; ++f) cells[cell(rng)].flip();
    Relation::Builder e(2);
    for (int c = 0; c < kDomain * kDomain; ++c) {
      if (cells[c]) e.Append({Name(C(c / kDomain)), Name(C(c % kDomain))});
    }
    patterns.push_back(e.Build());
  }
  std::vector<int> all(kDomain);
  for (int i = 0; i < kDomain; ++i) all[i] = i;
  std::vector<Database> dbs;
  for (int w = 0; w < 130; ++w) {
    std::vector<int> u;
    for (int bit = 0; bit < kDomain; ++bit) {
      if (((w >> bit) & 1) != 0) u.push_back(bit);
    }
    dbs.push_back(*Database::Create(
        schema, {Unary(all), patterns[static_cast<size_t>(w) % 5], Unary(u)}));
  }
  return *Knowledgebase::FromDatabases(std::move(dbs));
}

/// Runs τ at widths 1 and 4 against the oracle, then checks, in each
/// 64-world block of the result, that worlds whose relations at `head` are
/// equal hold one storage: the block's distinct storages there number its
/// distinct relations. Returns how many worlds reused a relation an earlier
/// world of their block holds.
size_t CheckBlocksShareHeadRelations(const Formula& phi,
                                     const Knowledgebase& kb,
                                     MuStrategy strategy,
                                     const std::string& head) {
  MuOptions mu;
  mu.strategy = strategy;
  StatusOr<Knowledgebase> expected = OracleTau(phi, kb, mu);
  EXPECT_TRUE(expected.ok()) << expected.status();
  size_t reused = 0;
  for (size_t threads : {1u, 4u}) {
    const std::string where =
        head + ", " + MuStrategyName(strategy) + ", threads " +
        std::to_string(threads);
    TauOptions options;
    options.mu = mu;
    options.threads = threads;
    StatusOr<Knowledgebase> got = Tau(phi, kb, options);
    EXPECT_TRUE(got.ok()) << where << ": " << got.status();
    if (!got.ok() || !expected.ok()) return 0;
    EXPECT_EQ(*expected, *got) << where;
    // One output per world, in input order: world i's σ(kb) deltas are its
    // input's.
    EXPECT_EQ(got->size(), kb.size()) << where;
    if (got->size() != kb.size()) return 0;
    for (size_t i = 0; i < kb.size(); ++i) {
      for (uint32_t p = 0; p < kb.schema().size(); ++p) {
        const RelationDelta* in = kb.overlays()[i].FindDelta(p);
        const RelationDelta* out = got->overlays()[i].FindDelta(p);
        const bool same = in == nullptr ? out == nullptr
                                        : out != nullptr && *in == *out;
        EXPECT_TRUE(same) << where << ", world " << i;
        if (!same) return 0;
      }
    }
    const uint32_t pos =
        static_cast<uint32_t>(*got->schema().PositionOf(Name(head)));
    size_t reused_here = 0;
    for (size_t begin = 0; begin < kb.size(); begin += 64) {
      std::vector<std::pair<Relation, std::set<const void*>>> relations;
      std::set<const void*> storages;
      for (size_t i = begin; i < std::min(kb.size(), begin + 64); ++i) {
        const RelationDelta* d = got->overlays()[i].FindDelta(pos);
        if (d == nullptr) continue;
        auto same = std::find_if(
            relations.begin(), relations.end(),
            [&](const auto& entry) { return entry.first == d->adds; });
        if (same == relations.end()) {
          relations.push_back({d->adds, {}});
          same = relations.end() - 1;
        } else {
          ++reused_here;
        }
        same->second.insert(d->adds.StorageId());
        storages.insert(d->adds.StorageId());
      }
      for (const auto& [relation, ids] : relations) {
        EXPECT_EQ(ids.size(), 1u)
            << where << ", block at " << begin << ": " << relation.size()
            << " rows held in " << ids.size() << " storages";
      }
      EXPECT_EQ(storages.size(), relations.size())
          << where << ", block at " << begin;
    }
    reused = reused_here;
  }
  return reused;
}

TEST(TauWorldClassTest, DatalogBlocksShareRepeatedHeadRelations) {
  // Worlds of one block whose bits over the head's tuples are equal hold one
  // relation, not one copy each.
  Knowledgebase kb = RepeatedPatternBlocksKb();
  ASSERT_EQ(kb.size(), 130u);
  Formula phi = *ParseSentence(kClosure);
  for (MuStrategy strategy : {MuStrategy::kAuto, MuStrategy::kDatalog}) {
    EXPECT_GT(CheckBlocksShareHeadRelations(phi, kb, strategy, "T"), 100u);
  }
}

TEST(TauWorldClassTest, DefinitionalBlocksShareRepeatedHeadRelations) {
  Knowledgebase kb = RepeatedPatternBlocksKb();
  ASSERT_EQ(kb.size(), 130u);
  Formula phi = *ParseSentence(
      "forall x, y: (E(x, y) & !E(y, x)) | (exists z: E(x, z) & E(z, y)) "
      "<-> H(x, y)");
  for (MuStrategy strategy :
       {MuStrategy::kAuto, MuStrategy::kDefinitional}) {
    EXPECT_GT(CheckBlocksShareHeadRelations(phi, kb, strategy, "H"), 100u);
  }
}

TEST(TauWorldClassTest, DatalogBlocksFailOnAnExpiredDeadline) {
  std::mt19937_64 rng(65);
  Knowledgebase kb = FlippedWorldsKb(130, &rng);
  Formula phi = *ParseSentence(kClosure);
  CancelToken expired;
  expired.set_deadline_after(std::chrono::milliseconds(-1));
  for (MuStrategy strategy : {MuStrategy::kAuto, MuStrategy::kDatalog}) {
    for (bool serving : {false, true}) {
      for (size_t threads : {1u, 4u}) {
        ServingResources resources;
        TauOptions options;
        options.mu.strategy = strategy;
        options.mu.cancel = &expired;
        options.threads = threads;
        if (serving) resources.Lend(&options);
        StatusOr<Knowledgebase> late = Tau(phi, kb, options);
        ASSERT_FALSE(late.ok()) << "threads " << threads;
        EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
      }
    }
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
  // the answer must equal the oracle's fold of Satisfies over every world.
  Knowledgebase kb = ReadColdKb();
  Formula antecedent = *ParseSentence(
      "exists x: (R(n0, x) | Q(x)) & S(x, n1) & !P(n2)");
  for (const char* text :
       {"P(n0)", "!P(n2)", "exists x: S(x, n1)", "S(n0, n1)", "Q(n1)",
        "exists x: P(x) & S(x, n1)", "forall x: S(x, n1) -> Q(x)"}) {
    Formula consequent = *ParseSentence(text);
    for (Modality modality : {Modality::kNecessarily, Modality::kPossibly}) {
      StatusOr<bool> expected =
          OracleHolds(kb, {antecedent}, consequent, modality);
      StatusOr<bool> got =
          NestedCounterfactual(kb, {antecedent}, consequent, modality);
      ASSERT_TRUE(expected.ok()) << expected.status();
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, *expected)
          << text << (modality == Modality::kPossibly ? " (possibly)" : "");
    }
  }
}

// --- Orient: the SAT sentence of the tau_worlds benchmark workload. ---

TEST(TauWorldClassTest, OrientRunsOneMuPerComponentPattern) {
  // Over n0..n5 the grounding has one conjunct per ordered pair x ≠ y, and
  // the conjuncts of (x, y) and (y, x) share their four atoms R(x, y),
  // R(y, x), S(x, y), S(y, x): one component per unordered pair. S is new,
  // so a component's class is its pair and the world's two R values there.
  constexpr int kDomain = 6;
  std::mt19937_64 rng(13);
  Schema schema = *Schema::Of({{"Dom", 1}, {"R", 2}});
  std::vector<int> all(kDomain);
  for (int i = 0; i < kDomain; ++i) all[i] = i;
  std::bernoulli_distribution coin(0.35);
  std::vector<bool> base(kDomain * kDomain);
  for (int cell = 0; cell < kDomain * kDomain; ++cell) base[cell] = coin(rng);
  std::uniform_int_distribution<int> cell_of(0, kDomain * kDomain - 1);
  std::vector<std::vector<bool>> cells;
  std::vector<Database> dbs;
  for (int w = 0; w < 40; ++w) {
    std::vector<bool> world = base;
    for (int f = 0; f < 2 + w % 2; ++f) {
      int cell = cell_of(rng);
      world[cell] = !world[cell];
    }
    Relation::Builder r(2);
    for (int cell = 0; cell < kDomain * kDomain; ++cell) {
      if (world[cell]) r.Append({Name(C(cell / kDomain)), Name(C(cell % kDomain))});
    }
    cells.push_back(world);
    dbs.push_back(*Database::Create(schema, {Unary(all), r.Build()}));
  }
  Knowledgebase kb = *Knowledgebase::FromDatabases(std::move(dbs));
  // FromDatabases sorts and deduplicates: read the cells back per world.
  cells.clear();
  for (size_t w = 0; w < kb.size(); ++w) {
    Database world = kb.World(w);
    std::vector<bool> row(kDomain * kDomain);
    for (TupleView t : *world.FindRelation(Name("R"))) {
      int x = std::stoi(NameOf(t[0]).substr(1));
      int y = std::stoi(NameOf(t[1]).substr(1));
      row[x * kDomain + y] = true;
    }
    cells.push_back(row);
  }
  std::set<std::tuple<int, int, bool, bool>> patterns;
  std::set<size_t> leaders;
  for (size_t w = 0; w < cells.size(); ++w) {
    for (int x = 0; x < kDomain; ++x) {
      for (int y = x + 1; y < kDomain; ++y) {
        if (patterns
                .insert({x, y, cells[w][x * kDomain + y],
                         cells[w][y * kDomain + x]})
                .second) {
          leaders.insert(w);
        }
      }
    }
  }
  Formula orient = *ParseSentence(
      "forall x, y: (R(x, y) & !R(y, x)) -> (S(x, y) & !S(y, x))");
  for (MuStrategy strategy : {MuStrategy::kAuto, MuStrategy::kSat}) {
    MuOptions mu;
    mu.strategy = strategy;
    TauStats stats = CheckTau(orient, kb, mu);
    EXPECT_EQ(stats.mu.used, MuStrategy::kSat);
    EXPECT_EQ(stats.mu_classes, patterns.size());
    EXPECT_EQ(stats.shared_worlds, kb.size() - leaders.size());
  }
}

// --- Budgets on the split. ---

/// `members` worlds over R/1 = e0..e9 and U/1, told apart by U.
Knowledgebase TenElementKb(int members) {
  Schema schema = *Schema::Of({{"R", 1}, {"U", 1}});
  std::vector<Tuple> elems;
  for (int i = 0; i < 10; ++i) elems.push_back(Tuple{Name("e" + std::to_string(i))});
  std::vector<Database> dbs;
  for (int w = 0; w < members; ++w) {
    dbs.push_back(*Database::Create(
        schema, {Relation(1, elems), Relation(1, {elems[static_cast<size_t>(w)]})}));
  }
  return *Knowledgebase::FromDatabases(std::move(dbs));
}

TEST(TauWorldClassTest, MaxModelsBoundsEachWorldsProduct) {
  // ResourceGuardTest.MaxModelsTrips's sentence: ten components
  // R(e_i) -> R2(e_i) | R3(e_i) with two minimal models each, so every
  // world's μ has 2^10 = 1024 models although no component has more than two.
  Knowledgebase kb = TenElementKb(3);
  Formula phi = *ParseSentence("forall x: R(x) -> R2(x) | R3(x)");
  for (bool serving : {false, true}) {
    for (size_t threads : {1u, 4u}) {
      ServingResources resources;
      TauOptions options;
      options.mu.strategy = MuStrategy::kSat;
      options.mu.max_models = 100;
      options.threads = threads;
      if (serving) resources.Lend(&options);
      StatusOr<Knowledgebase> over = Tau(phi, kb, options);
      ASSERT_FALSE(over.ok()) << "threads " << threads;
      EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);

      // A budget of exactly one product admits it.
      options.mu.max_models = 1024;
      TauStats stats;
      StatusOr<Knowledgebase> exact = Tau(phi, kb, options, &stats);
      ASSERT_TRUE(exact.ok()) << exact.status();
      EXPECT_EQ(exact->size(), 3u * 1024);
      EXPECT_EQ(stats.mu_classes, 10u);
    }
  }
  MuOptions sat;
  sat.strategy = MuStrategy::kSat;
  TauStats stats = CheckTau(phi, kb, sat);
  EXPECT_EQ(stats.output_databases, 3u * 1024);
}

TEST(TauWorldClassTest, ReferenceBudgetCountsOneComponentsAtoms) {
  // Thirty one-atom components: each reference μ enumerates one atom, while
  // plain reference μ over all thirty is over max_reference_atoms (20), so
  // the oracle is plain SAT μ.
  Knowledgebase kb = ReadColdKb();
  std::vector<std::string> atoms;
  for (int i = 0; i < 12; ++i) atoms.push_back("P(" + C(i) + ")");
  for (int i = 0; i < 12; ++i) atoms.push_back("Q(" + C(i) + ")");
  for (int i = 0; i < 6; ++i) atoms.push_back("R(" + C(i) + ", " + C(i) + ")");
  std::string text;
  for (size_t i = 0; i < atoms.size(); ++i) {
    text += (i == 0 ? "" : " & ") + std::string(i % 3 == 0 ? "!" : "") + atoms[i];
  }
  Formula phi = *ParseSentence(text);
  MuOptions reference;
  reference.strategy = MuStrategy::kReference;
  StatusOr<Knowledgebase> flat = Mu(phi, kb.World(0), reference);
  ASSERT_FALSE(flat.ok());
  EXPECT_EQ(flat.status().code(), StatusCode::kResourceExhausted);

  // One class per (atom, value) the worlds show.
  std::set<std::pair<size_t, bool>> patterns;
  for (size_t w = 0; w < kb.size(); ++w) {
    Database world = kb.World(w);
    for (size_t i = 0; i < atoms.size(); ++i) {
      StatusOr<bool> holds = Satisfies(world, *ParseSentence(atoms[i]));
      ASSERT_TRUE(holds.ok());
      patterns.insert({i, *holds});
    }
  }
  MuOptions sat;
  sat.strategy = MuStrategy::kSat;
  StatusOr<Knowledgebase> expected = OracleTau(phi, kb, sat);
  ASSERT_TRUE(expected.ok()) << expected.status();
  for (bool serving : {false, true}) {
    TauStats stats_at[2];
    for (int t = 0; t < 2; ++t) {
      ServingResources resources;
      TauOptions options;
      options.mu = reference;
      options.threads = t == 0 ? 1 : 4;
      if (serving) resources.Lend(&options);
      StatusOr<Knowledgebase> got = Tau(phi, kb, options, &stats_at[t]);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*expected, *got);
      EXPECT_EQ(stats_at[t].mu.used, MuStrategy::kReference);
      EXPECT_EQ(stats_at[t].mu_classes, patterns.size());
    }
    ExpectSameStats(stats_at[0], stats_at[1], "serving " + std::to_string(serving));
  }

  // Under kAuto an over-budget component falls back to SAT on that
  // component alone (a 21-atom disjunction beside one-atom parts), also
  // when the sentence has a datalog plan (a ground Horn clause with a
  // 22-atom component, beside a new fact).
  std::string wide = "(" + atoms[0];
  for (size_t i = 1; i < 21; ++i) wide += " | " + atoms[i];
  wide += ") & !" + atoms[21] + " & " + atoms[22];
  std::string horn = "(" + atoms[0];
  for (size_t i = 1; i < 21; ++i) horn += " & " + atoms[i];
  horn += " -> T(n0)) & T2(n1)";
  for (const std::string& fallback : {wide, horn}) {
    TauStats stats = CheckTau(*ParseSentence(fallback), kb, MuOptions());
    EXPECT_GT(stats.mu_classes, kb.size() - stats.shared_worlds) << fallback;
  }

  // max_ground_nodes still bounds the whole grounding.
  for (size_t threads : {1u, 4u}) {
    TauOptions options;
    options.mu = reference;
    options.mu.max_ground_nodes = 20;
    options.threads = threads;
    StatusOr<Knowledgebase> big = Tau(phi, kb, options);
    ASSERT_FALSE(big.ok()) << "threads " << threads;
    EXPECT_EQ(big.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(TauWorldClassTest, DeadlineAndBudgetFailASplitSentence) {
  // The existential part is the component that needs SAT conflicts; the
  // other parts are components of their own. An expired token fails τ
  // before any class runs, the conflict budget inside the existential
  // part's class: both with kDeadlineExceeded at every thread count.
  Knowledgebase kb = ReadColdKb();
  Formula phi = *ParseSentence(
      "(exists x: R(n0, x) & S(x, n1) & !Q(n2)) & !P(n1) & (Q(n5) | P(n9))");
  MuOptions sat;
  sat.strategy = MuStrategy::kSat;
  TauStats unlimited = CheckTau(phi, kb, sat);
  ASSERT_GT(unlimited.mu_classes, 1u);
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
      TauStats tripped_stats;
      StatusOr<Knowledgebase> tripped = Tau(phi, kb, budget, &tripped_stats);
      ASSERT_FALSE(tripped.ok()) << "threads " << threads;
      EXPECT_EQ(tripped.status().code(), StatusCode::kDeadlineExceeded);
      EXPECT_EQ(tripped_stats.mu_classes, unlimited.mu_classes);

      // The trip left the borrowed solver and caches usable.
      StatusOr<Knowledgebase> healthy = Tau(phi, kb, options);
      ASSERT_TRUE(healthy.ok()) << healthy.status();
    }
  }
}

// --- Counters across a chain. ---

TEST(TauWorldClassTest, ChainStatsAreTheSumOfItsSteps) {
  Knowledgebase kb = ReadColdKb();
  Formula first =
      *ParseSentence("exists x: (R(n0, x) | Q(x)) & S(x, n1) & !P(n2)");
  Formula second = *ParseSentence("P(n1) & !P(n3) & (S(n4, n5) | P(n6))");
  Formula consequent = *ParseSentence("P(n1)");
  for (size_t threads : {1u, 4u}) {
    TauOptions options;
    options.threads = threads;
    TauStats one, two;
    StatusOr<Knowledgebase> middle = Tau(first, kb, options, &one);
    ASSERT_TRUE(middle.ok()) << middle.status();
    ASSERT_TRUE(Tau(second, *middle, options, &two).ok());

    TauStats chain;
    std::vector<ChainStep> steps(2);
    steps[0].antecedent = &first;
    steps[1].antecedent = &second;
    StatusOr<bool> holds = NestedCounterfactual(
        kb, steps, consequent, Modality::kNecessarily, options, &chain);
    ASSERT_TRUE(holds.ok()) << holds.status();
    EXPECT_TRUE(*holds);

    // Work counters add up; sizes and threads are the last step's.
    EXPECT_GT(one.shared_worlds, 0u);
    EXPECT_GT(two.mu_classes, 0u);
    TauStats sum = two;
    sum.mu = one.mu;
    sum.mu.MergeFrom(two.mu);
    sum.ground_cache_hits += one.ground_cache_hits;
    sum.ground_cache_misses += one.ground_cache_misses;
    sum.cnf_cache_hits += one.cnf_cache_hits;
    sum.cnf_cache_misses += one.cnf_cache_misses;
    sum.shared_worlds += one.shared_worlds;
    sum.mu_classes += one.mu_classes;
    EXPECT_EQ(chain.threads_used, two.threads_used);
    ExpectSameStats(chain, sum, "threads " + std::to_string(threads));
  }
}

TEST(TauWorldClassTest, StepOnAnEmptyKbReportsItsOwnThreads) {
  // The first step is inconsistent, so the second runs on an empty kb. Like
  // the sizes, threads_used then describes that last call alone: the value a
  // lone τ on the empty kb reports, not the first step's fan-out.
  Knowledgebase kb = ReadColdKb();
  Formula contradiction = *ParseSentence("P(n1) & !P(n1)");
  Formula second = *ParseSentence("P(n2)");
  TauOptions options;
  options.threads = 4;
  TauStats first;
  StatusOr<Knowledgebase> empty = Tau(contradiction, kb, options, &first);
  ASSERT_TRUE(empty.ok()) << empty.status();
  ASSERT_TRUE(empty->empty());
  EXPECT_EQ(first.threads_used, 4u);
  TauStats lone;
  ASSERT_TRUE(Tau(second, *empty, options, &lone).ok());
  EXPECT_EQ(lone.threads_used, 1u);

  TauStats chain;
  std::vector<ChainStep> steps(2);
  steps[0].antecedent = &contradiction;
  steps[1].antecedent = &second;
  StatusOr<bool> holds = NestedCounterfactual(
      kb, steps, second, Modality::kNecessarily, options, &chain);
  ASSERT_TRUE(holds.ok()) << holds.status();
  EXPECT_TRUE(*holds);  // Vacuously: no world is left.
  EXPECT_EQ(chain.input_databases, 0u);
  EXPECT_EQ(chain.output_databases, 0u);
  EXPECT_EQ(chain.threads_used, lone.threads_used);
}

}  // namespace
}  // namespace kbt
