/// \file
/// The τ executor's determinism contract: for every knowledgebase and sentence,
/// Tau with threads=N returns a Knowledgebase *equal* to the sequential result
/// and to the specification oracle (testutil::OracleTau) — same canonical
/// member list, bit for bit. Verified on randomized inputs across strategies
/// (auto dispatch and forced SAT), plus deterministic error propagation and
/// stats sanity.

#include <gtest/gtest.h>

#include <random>

#include "core/kbt.h"
#include "testutil.h"

namespace kbt {
namespace {

using testutil::RandomDatabase;
using testutil::RandomSentenceGenerator;
using testutil::TestSchema;

/// A random kb with more members than testutil's default (τ fan-out wants
/// enough worlds to split into chunks).
Knowledgebase RandomWideKb(std::mt19937_64* rng, int min_members,
                           int max_members) {
  std::uniform_int_distribution<int> count(min_members, max_members);
  std::vector<Database> dbs;
  int k = count(*rng);
  for (int i = 0; i < k; ++i) dbs.push_back(RandomDatabase(rng));
  return *Knowledgebase::FromDatabases(std::move(dbs));
}

TEST(TauParallelTest, MatchesSequentialOnRandomInputsAutoStrategy) {
  std::mt19937_64 rng(2024);
  RandomSentenceGenerator gen(&rng, /*new_relation_prob=*/0.3);
  int compared = 0;
  for (int iter = 0; iter < 40; ++iter) {
    Knowledgebase kb = RandomWideKb(&rng, 4, 9);
    Formula phi = gen.Generate(3);

    TauOptions seq;
    seq.threads = 1;
    TauStats seq_stats;
    StatusOr<Knowledgebase> expected = Tau(phi, kb, seq, &seq_stats);

    for (size_t threads : {2u, 4u}) {
      TauOptions par;
      par.threads = threads;
      TauStats par_stats;
      StatusOr<Knowledgebase> got = Tau(phi, kb, par, &par_stats);
      ASSERT_EQ(expected.ok(), got.ok())
          << "iter " << iter << " threads " << threads;
      if (!expected.ok()) {
        // Success/failure is scheduling-independent; the specific code is not
        // when different worlds fail differently (the executor reports the
        // first failure it observed and skips the rest).
        continue;
      }
      EXPECT_EQ(*expected, *got) << "iter " << iter << " threads " << threads;
      EXPECT_EQ(seq_stats.output_databases, par_stats.output_databases);
      // μ counters merge in world order: identical regardless of scheduling.
      EXPECT_EQ(seq_stats.mu.minimal_models, par_stats.mu.minimal_models);
      ++compared;
    }
  }
  EXPECT_GT(compared, 0);
}

TEST(TauParallelTest, MatchesSequentialForcedSatAcrossCacheAndPrefixModes) {
  // The bit-identity contract of the shared grounding cache and the frozen
  // CNF prefix: for every (kb, φ), forced-SAT τ at 1 and 4 threads returns
  // the same canonical knowledgebase as the oracle, plain μ on each flat
  // world with a freshly encoded solver. Forked solvers replay the exact
  // search of freshly encoded ones, so this holds bit for bit.
  std::mt19937_64 rng(77);
  RandomSentenceGenerator gen(&rng, /*new_relation_prob=*/0.4);
  MuOptions sat;
  sat.strategy = MuStrategy::kSat;
  for (int iter = 0; iter < 20; ++iter) {
    Knowledgebase kb = RandomWideKb(&rng, 3, 6);
    Formula phi = gen.Generate(2);
    StatusOr<Knowledgebase> expected = testutil::OracleTau(phi, kb, sat);

    for (size_t threads : {1u, 4u}) {
      TauOptions options;
      options.mu = sat;
      options.threads = threads;
      StatusOr<Knowledgebase> got = Tau(phi, kb, options);
      ASSERT_EQ(expected.ok(), got.ok())
          << "iter " << iter << " threads " << threads;
      if (expected.ok()) {
        EXPECT_EQ(*expected, *got) << "iter " << iter << " threads " << threads;
      }
    }
  }
}

TEST(TauParallelTest, SharedDomainWorldsHitTheCache) {
  // testutil worlds all pin Dom = {a, b, c}, so their active domains coincide
  // whenever the sentence adds no new constants: every world's domain is the
  // base's, domain0, whose grounding τ looks up once per call, whichever
  // worker gets there first. On the SAT path that one lookup is a miss of
  // the frozen-CNF-prefix cache, whose build grounds exactly once through
  // the grounding cache; nothing hits either cache.
  std::mt19937_64 rng(5);
  std::vector<Database> dbs;
  for (int i = 0; i < 6; ++i) dbs.push_back(RandomDatabase(&rng));
  Knowledgebase kb = *Knowledgebase::FromDatabases(std::move(dbs));
  size_t worlds = kb.size();

  Formula phi = *ParseSentence("forall x: (P(x) & !Q(x, x)) -> (N(x) & P(x))");
  TauOptions options;
  options.mu.strategy = MuStrategy::kSat;
  options.threads = 2;
  TauStats stats;
  StatusOr<Knowledgebase> result = Tau(phi, kb, options, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GT(worlds, 1u);
  EXPECT_EQ(stats.cnf_cache_misses, 1u);
  EXPECT_EQ(stats.cnf_cache_hits, 0u);
  EXPECT_EQ(stats.ground_cache_misses, 1u);
  EXPECT_EQ(stats.ground_cache_hits, 0u);
  EXPECT_EQ(stats.threads_used, 2u);

  // And the cached run agrees with the oracle, which uses no cache.
  StatusOr<Knowledgebase> expected = testutil::OracleTau(phi, kb, options.mu);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(*expected, *result);
}

TEST(TauParallelTest, WorldScratchPoolReusedAcrossManyWorldsAndThreads) {
  // The per-worker WorldScratch pool (exec/scratch.h): with ≥ 4 workers and
  // several times that many SAT worlds, every worker's scratch — the
  // enumerator tables, the descent buffers, the parked materializer — is
  // dirtied by one world and reused by the next, concurrently across workers.
  // The executor contract stands: results equal the sequential run exactly.
  // (Runs under TSan via the CI filter; races on scratch reuse would surface
  // here.)
  std::mt19937_64 rng(20260730);
  RandomSentenceGenerator gen(&rng, /*new_relation_prob=*/0.4);
  for (int iter = 0; iter < 6; ++iter) {
    Knowledgebase kb = RandomWideKb(&rng, 12, 20);
    Formula phi = gen.Generate(2);

    TauOptions seq;
    seq.mu.strategy = MuStrategy::kSat;
    seq.threads = 1;
    StatusOr<Knowledgebase> expected = Tau(phi, kb, seq);

    for (size_t threads : {4u, 6u}) {
      TauOptions par = seq;
      par.threads = threads;
      TauStats stats;
      StatusOr<Knowledgebase> got = Tau(phi, kb, par, &stats);
      ASSERT_EQ(expected.ok(), got.ok())
          << "iter " << iter << " threads " << threads;
      if (expected.ok()) {
        EXPECT_EQ(*expected, *got) << "iter " << iter << " threads " << threads;
        EXPECT_GE(stats.threads_used, 4u);
      }
    }
  }
}

TEST(TauParallelTest, ErrorPropagationIsDeterministic) {
  // A tiny grounding budget fails every world; parallel and sequential must
  // report the same code (the lowest-indexed world's error).
  std::mt19937_64 rng(11);
  std::vector<Database> dbs;
  for (int i = 0; i < 5; ++i) dbs.push_back(RandomDatabase(&rng));
  Knowledgebase kb = *Knowledgebase::FromDatabases(std::move(dbs));

  Formula phi = *ParseSentence(
      "forall x, y, z: (Q(x, y) & Q(y, z)) -> (Q(x, z) | P(x))");
  for (size_t threads : {1u, 4u}) {
    TauOptions options;
    options.mu.strategy = MuStrategy::kSat;
    options.mu.max_ground_nodes = 2;
    options.threads = threads;
    StatusOr<Knowledgebase> result = Tau(phi, kb, options);
    ASSERT_FALSE(result.ok()) << "threads " << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(TauParallelTest, SingleFailingWorldSurfacesStatusWithoutCrashing) {
  // Graceful degradation: one world with a much larger active domain than its
  // siblings blows a grounding budget sized for the small ones. That world
  // alone fails, the call surfaces its Status, and the process — pool workers
  // included — survives to serve the next call.
  Schema schema = *Schema::Of({{"Dom", 1}, {"Q", 2}});
  auto world = [&](int id, int domain) {
    Relation::Builder dom(1);
    for (int i = 0; i < domain; ++i) {
      dom.Append({Name("w" + std::to_string(id) + "_" + std::to_string(i))});
    }
    return *Database::Create(schema, {dom.Build(), Relation(2)});
  };
  std::vector<Database> small;
  for (int i = 0; i < 6; ++i) small.push_back(world(i, 2));
  Knowledgebase small_kb = *Knowledgebase::FromDatabases(small);
  small.push_back(world(99, 16));
  Knowledgebase mixed_kb = *Knowledgebase::FromDatabases(std::move(small));

  Formula phi = *ParseSentence("forall x, y: Q(x, y) -> Q(y, x)");
  TauOptions options;
  options.mu.strategy = MuStrategy::kSat;
  options.mu.max_ground_nodes = 600;

  for (size_t threads : {1u, 4u}) {
    options.threads = threads;
    // The budget clears every small world...
    StatusOr<Knowledgebase> healthy = Tau(phi, small_kb, options);
    ASSERT_TRUE(healthy.ok()) << healthy.status();
    // ...and only the big world trips it.
    StatusOr<Knowledgebase> degraded = Tau(phi, mixed_kb, options);
    ASSERT_FALSE(degraded.ok()) << "threads " << threads;
    EXPECT_EQ(degraded.status().code(), StatusCode::kResourceExhausted);
    // The failure poisoned nothing: the same call with a real budget works.
    TauOptions generous = options;
    generous.mu.max_ground_nodes = 5'000'000;
    StatusOr<Knowledgebase> retry = Tau(phi, mixed_kb, generous);
    EXPECT_TRUE(retry.ok()) << retry.status();
  }
}

TEST(TauParallelTest, ThreadsCappedByWorldCountAndZeroMeansAuto) {
  std::mt19937_64 rng(3);
  Knowledgebase kb = *Knowledgebase::FromDatabases(
      {RandomDatabase(&rng), RandomDatabase(&rng)});
  Formula phi = *ParseSentence("P(a) | Q(a, b)");

  TauOptions options;
  options.threads = 16;  // More threads than worlds: capped at kb.size().
  TauStats stats;
  StatusOr<Knowledgebase> result = Tau(phi, kb, options, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(stats.threads_used, kb.size());

  options.threads = 0;  // Auto: hardware concurrency, still capped and valid.
  TauStats auto_stats;
  StatusOr<Knowledgebase> auto_result = Tau(phi, kb, options, &auto_stats);
  ASSERT_TRUE(auto_result.ok()) << auto_result.status();
  EXPECT_GE(auto_stats.threads_used, 1u);
  EXPECT_EQ(*result, *auto_result);
}

TEST(TauParallelTest, PipelineAndEnginePlumbThreadCount) {
  std::mt19937_64 rng(9);
  std::vector<Database> dbs;
  for (int i = 0; i < 4; ++i) dbs.push_back(RandomDatabase(&rng));
  Knowledgebase kb = *Knowledgebase::FromDatabases(std::move(dbs));

  EngineOptions options;
  options.tau_threads = 4;
  Engine sequential;
  Engine parallel(options);
  const char* expr = "tau{ forall x: P(x) -> N(x) } >> pi[N]";
  StatusOr<Knowledgebase> seq = sequential.Apply(expr, kb);
  StatusOr<Knowledgebase> par = parallel.Apply(expr, kb);
  ASSERT_TRUE(seq.ok()) << seq.status();
  ASSERT_TRUE(par.ok()) << par.status();
  EXPECT_EQ(*seq, *par);
}

}  // namespace
}  // namespace kbt
