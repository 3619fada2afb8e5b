#include "serve/server.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/hypothetical.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "serve/cache_bank.h"
#include "serve/snapshot.h"
#include "logic/grounder.h"
#include "store/fault_env.h"
#include "store/file.h"
#include "store/recovery.h"
#include "testutil.h"

namespace kbt::serve {
namespace {

Knowledgebase SmallKb() {
  return *MakeSingletonKb({{"P", 1}, {"Q", 2}},
                          {{"P", {{"a"}}}, {"Q", {{"a", "b"}}}});
}

// ---------------------------------------------------------------------------
// SnapshotRegistry

TEST(SnapshotRegistryTest, InitialStateIsVersionZero) {
  SnapshotRegistry registry(SmallKb());
  std::shared_ptr<const Snapshot> snap = registry.Current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 0u);
  EXPECT_EQ(snap->kb, SmallKb());
  EXPECT_EQ(registry.version(), 0u);
}

TEST(SnapshotRegistryTest, PublishAdvancesVersionAndKeepsOldAlive) {
  SnapshotRegistry registry(SmallKb());
  std::shared_ptr<const Snapshot> v0 = registry.Current();

  Knowledgebase next = *MakeSingletonKb({{"P", 1}}, {{"P", {{"b"}}}});
  std::shared_ptr<const Snapshot> v1 = registry.Publish(next);
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(registry.Current()->version, 1u);
  EXPECT_EQ(registry.Current()->kb, next);

  // The superseded snapshot is unchanged for readers still holding it.
  EXPECT_EQ(v0->version, 0u);
  EXPECT_EQ(v0->kb, SmallKb());
}

// ---------------------------------------------------------------------------
// QueryCacheBank

TEST(QueryCacheBankTest, TextualVariantsOfOneSentenceShareAnEntry) {
  QueryCacheBank bank(8);
  auto a = bank.Get("P(a)&Q(a,b)");
  ASSERT_TRUE(a.ok());
  auto b = bank.Get("P(a)  &  Q(a, b)");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->get(), b->get());
  EXPECT_EQ(bank.entries(), 1u);
  EXPECT_EQ(bank.hits(), 1u);
  EXPECT_EQ(bank.misses(), 1u);
  // The entry's canonical formula is what borrowers evaluate.
  ASSERT_NE((*a)->sentence, nullptr);
}

TEST(QueryCacheBankTest, EvictsLeastRecentlyUsedBeyondCapacity) {
  QueryCacheBank bank(2);
  ASSERT_TRUE(bank.Get("P(a)").ok());
  ASSERT_TRUE(bank.Get("P(b)").ok());
  ASSERT_TRUE(bank.Get("P(a)").ok());  // P(a) is now hottest.
  ASSERT_TRUE(bank.Get("P(c)").ok());  // Evicts P(b).
  EXPECT_EQ(bank.entries(), 2u);
  uint64_t misses_before = bank.misses();
  ASSERT_TRUE(bank.Get("P(b)").ok());  // Re-resolved: a miss (evicts P(a)).
  EXPECT_EQ(bank.misses(), misses_before + 1);
  uint64_t hits_before = bank.hits();
  ASSERT_TRUE(bank.Get("P(c)").ok());  // Still resident: a hit.
  EXPECT_EQ(bank.hits(), hits_before + 1);
}

TEST(QueryCacheBankTest, EvictedEntryStaysValidForHolders) {
  QueryCacheBank bank(1);
  auto held = bank.Get("P(a) | Q(a, a)");
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(bank.Get("P(b)").ok());  // Evicts the held entry from the bank.
  EXPECT_EQ(bank.entries(), 1u);
  // The shared_ptr keeps the entry (and its formula) alive.
  EXPECT_EQ(ToString((*held)->sentence), ToString(*ParseSentence("P(a)|Q(a,a)")));
}

TEST(QueryCacheBankTest, ParseErrorsPropagate) {
  QueryCacheBank bank(4);
  EXPECT_FALSE(bank.Get("P(a").ok());
  EXPECT_FALSE(bank.Get("P(a) &").ok());
  // (No free-variable case: an unbound identifier in term position names a
  // constant in this syntax, so any well-formed formula here is a sentence.)
  EXPECT_EQ(bank.entries(), 0u);
}

TEST(QueryCacheBankTest, DomainCapBoundsPerSentenceGrowthUnderChurn) {
  // Rotating active domains — the shape a domain-churning workload produces:
  // every commit adds a constant, so every read is a fresh domain key. With
  // entry_max_domains = 2 the per-sentence grounding cache must stay at ≤ 2
  // entries no matter how many distinct domains pass through, and an evicted
  // domain must recompute to an identical grounding.
  QueryCacheBank bank(4, /*entry_byte_budget=*/0, /*entry_max_domains=*/2);
  auto entry = bank.Get("P(a)");
  ASSERT_TRUE(entry.ok());
  GrounderOptions gopts;

  std::vector<Value> first_domain = {Name("a")};
  auto first = (*entry)->ground.GetOrGround((*entry)->sentence, first_domain,
                                            gopts);
  ASSERT_TRUE(first.ok());
  const size_t first_circuit = (*first)->grounding.circuit.size();

  for (int i = 0; i < 10; ++i) {
    std::vector<Value> domain = {Name("a")};
    for (int j = 0; j <= i; ++j) {
      domain.push_back(Name("c" + std::to_string(j)));
    }
    auto g = (*entry)->ground.GetOrGround((*entry)->sentence, domain, gopts);
    ASSERT_TRUE(g.ok()) << g.status().message();
    EXPECT_LE((*entry)->ground.entries(), 2u) << "round " << i;
  }
  EXPECT_GE((*entry)->ground.stats().evictions, 8u);

  // The first domain was evicted long ago; recomputing it yields the same
  // grounding shape.
  auto again = (*entry)->ground.GetOrGround((*entry)->sentence, first_domain,
                                            gopts);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->grounding.circuit.size(), first_circuit);
}

// ---------------------------------------------------------------------------
// Server: write path and snapshots

TEST(ServeServerTest, ApplyPublishesMonotoneVersions) {
  Server server(SmallKb());
  EXPECT_EQ(server.CurrentSnapshot()->version, 0u);

  auto v1 = server.Apply("tau{P(b)}");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 1u);
  auto v2 = server.Apply("tau{Q(b, c)}");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2u);
  EXPECT_EQ(server.CurrentSnapshot()->version, 2u);
  EXPECT_EQ(server.stats().commits, 2u);
}

TEST(ServeServerTest, FailedApplyPublishesNothing) {
  Server server(SmallKb());
  std::shared_ptr<const Snapshot> before = server.CurrentSnapshot();
  EXPECT_FALSE(server.Apply("tau{P(").ok());
  EXPECT_EQ(server.CurrentSnapshot().get(), before.get());
  EXPECT_EQ(server.stats().commits, 0u);
}

// ---------------------------------------------------------------------------
// Server: read path

TEST(ServeServerTest, ModalAndCounterfactualReadsMatchCoreSemantics) {
  Server server(SmallKb());
  std::unique_ptr<Session> session = server.StartSession();

  auto modal = session->Holds("P(a)");
  ASSERT_TRUE(modal.ok());
  EXPECT_TRUE(modal->holds);
  EXPECT_EQ(modal->snapshot_version, 0u);

  ReadRequest request;
  request.antecedents = {"P(c)", "Q(c, c)"};
  request.consequent = "P(c) & Q(c, c)";
  request.modality = Modality::kNecessarily;
  auto counterfactual = session->Query(request);
  ASSERT_TRUE(counterfactual.ok());
  EXPECT_TRUE(counterfactual->holds);

  // The snapshot itself was never modified by the hypothetical chain.
  EXPECT_EQ(server.CurrentSnapshot()->kb, SmallKb());
  EXPECT_EQ(server.stats().reads, 2u);
}

TEST(ServeServerTest, ReadsSeeTheVersionTheyAcquired) {
  Server server(SmallKb());
  std::unique_ptr<Session> session = server.StartSession();
  ASSERT_TRUE(server.Apply("tau{P(d)}").ok());
  auto read = session->Holds("P(d)");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->holds);
  EXPECT_EQ(read->snapshot_version, 1u);
}

/// Property: the served read path (cache bank + pinned solver/scratch + the
/// ChainStep NestedCounterfactual) answers exactly like the specification
/// oracle on the same snapshot — plain μ on every flat world, step by step,
/// then the consequent over every world (testutil::OracleHolds) — across
/// random kbs, random chains, repeated sentences (cache hits) and both
/// modalities.
TEST(ServeServerTest, ServedReadsMatchTheOracle) {
  std::mt19937_64 rng(20260808);
  testutil::RandomSentenceGenerator gen(&rng);
  std::uniform_int_distribution<int> chain_len(0, 2);
  std::bernoulli_distribution coin(0.5);

  for (int round = 0; round < 30; ++round) {
    Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
    Server server(kb);
    std::unique_ptr<Session> session = server.StartSession();
    for (int q = 0; q < 4; ++q) {
      std::vector<Formula> antecedents;
      ReadRequest request;
      int len = chain_len(rng);
      for (int i = 0; i < len; ++i) {
        Formula f = gen.Generate(2);
        antecedents.push_back(f);
        request.antecedents.push_back(ToString(f));
      }
      Formula consequent = gen.Generate(2);
      request.consequent = ToString(consequent);
      request.modality =
          coin(rng) ? Modality::kNecessarily : Modality::kPossibly;

      auto expected = testutil::OracleHolds(kb, antecedents, consequent,
                                            request.modality);
      ASSERT_TRUE(expected.ok()) << expected.status().message();
      auto served = session->Query(request);
      ASSERT_TRUE(served.ok()) << served.status().message();
      EXPECT_EQ(served->holds, *expected)
          << "round " << round << " query " << q << ": chain of " << len
          << " onto " << request.consequent;
    }
  }
}

TEST(ServeServerTest, RepeatedSentencesHitTheBank) {
  Server server(SmallKb());
  std::unique_ptr<Session> session = server.StartSession();
  ReadRequest request;
  request.antecedents = {"P(b)"};
  request.consequent = "P(b)";
  for (int i = 0; i < 3; ++i) {
    auto result = session->Query(request);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->holds);
  }
  Server::ServerStats stats = server.stats();
  EXPECT_EQ(stats.bank_misses, 1u);  // One resolve for P(b)...
  EXPECT_EQ(stats.bank_hits, 2u);    // ...then hits.
}

TEST(ServeServerTest, ByteBudgetEvictsSentenceEntriesUnderDomainChurn) {
  // Domain-churn workload against a 1-byte entry budget: every read outgrows
  // the budget, so the bank must keep evicting and rebuilding instead of
  // accumulating one grounding per domain forever — and every answer must
  // match an unbounded twin serving the identical workload.
  ServerOptions bounded_options;
  bounded_options.cache_entry_byte_budget = 1;
  Server bounded(SmallKb(), bounded_options);
  Server unbounded(SmallKb());
  std::unique_ptr<Session> bounded_session = bounded.StartSession();
  std::unique_ptr<Session> unbounded_session = unbounded.StartSession();

  for (int i = 0; i < 8; ++i) {
    const std::string apply = "tau{P(c" + std::to_string(i) + ")}";
    ASSERT_TRUE(bounded.Apply(apply).ok());
    ASSERT_TRUE(unbounded.Apply(apply).ok());
    for (const char* sentence :
         {"exists x: P(x)", "forall x: Q(x, x) -> P(x)"}) {
      ReadRequest request;
      request.antecedents = {"Q(b, b)"};
      request.consequent = sentence;
      auto b = bounded_session->Query(request);
      auto u = unbounded_session->Query(request);
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ASSERT_TRUE(u.ok()) << u.status().ToString();
      EXPECT_EQ(b->holds, u->holds) << "round " << i << ": " << sentence;
    }
  }
  EXPECT_GT(bounded.stats().bank_budget_evictions, 0u);
  EXPECT_EQ(unbounded.stats().bank_budget_evictions, 0u);
}

// ---------------------------------------------------------------------------
// Durable serving

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + name;
  if (store::Env::Default()->FileExists(dir)) {
    auto names = store::Env::Default()->ListDir(dir);
    if (names.ok()) {
      for (const std::string& n : *names) {
        Status ignored = store::Env::Default()->RemoveFile(dir + "/" + n);
        (void)ignored;
      }
    }
  }
  return dir;
}

TEST(ServeServerTest, DurableServerSurvivesReopen) {
  const std::string dir = FreshDir("kbt_serve_test_reopen");
  Knowledgebase committed{Schema()};
  {
    auto server = Server::OpenDurable(dir, SmallKb());
    ASSERT_TRUE(server.ok()) << server.status().message();
    ASSERT_TRUE((*server)->Apply("tau{P(b)}").ok());
    ASSERT_TRUE((*server)->Apply("tau{Q(b, c) | Q(c, b)}").ok());
    committed = (*server)->CurrentSnapshot()->kb;
    EXPECT_EQ((*server)->store()->lsn(), 2u);
  }
  // Reopen: recovered state is version 0 and `initial` is ignored.
  auto server = Server::OpenDurable(dir, Knowledgebase(Schema()));
  ASSERT_TRUE(server.ok()) << server.status().message();
  EXPECT_EQ((*server)->CurrentSnapshot()->version, 0u);
  EXPECT_EQ((*server)->CurrentSnapshot()->kb, committed);

  // And serves reads over the recovered state.
  std::unique_ptr<Session> session = (*server)->StartSession();
  auto read = session->Holds("P(b)");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->holds);
}

TEST(ServeServerTest, AutoCheckpointRotatesEveryNCommits) {
  const std::string dir = FreshDir("kbt_serve_test_autockpt");
  ServerOptions options;
  options.checkpoint_every = 2;
  auto server =
      Server::OpenDurable(dir, SmallKb(), store::StoreOptions(), options);
  ASSERT_TRUE(server.ok()) << server.status().message();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*server)->Apply("tau{P(b)}").ok());
  }
  // Two checkpoints happened; the newest is at lsn 4, so wal-4 exists and the
  // original wal-0 was garbage-collected.
  EXPECT_TRUE(
      store::Env::Default()->FileExists(dir + "/" + store::WalFileName(4)));
  EXPECT_FALSE(
      store::Env::Default()->FileExists(dir + "/" + store::WalFileName(0)));
  EXPECT_EQ((*server)->CurrentSnapshot()->version, 4u);
}

TEST(ServeServerTest, FailedDurableCommitLeavesSnapshotUnchanged) {
  // When the WAL write under Apply fails, the error must surface BEFORE
  // Publish: readers keep the old snapshot, the commit counter does not
  // move, and the next Apply succeeds with a contiguous version number
  // (the store self-heals the torn record).
  store::FaultInjectionEnv env;
  store::StoreOptions store_options;
  store_options.env = &env;
  auto server = Server::OpenDurable("db", SmallKb(), store_options);
  ASSERT_TRUE(server.ok()) << server.status().message();
  ASSERT_TRUE((*server)->Apply("tau{P(b)}").ok());
  const Knowledgebase before = (*server)->CurrentSnapshot()->kb;
  const uint64_t version_before = (*server)->CurrentSnapshot()->version;
  const uint64_t commits_before = (*server)->stats().commits;
  const uint64_t lsn_before = (*server)->store()->lsn();

  env.FailAt(1, store::FaultKind::kFail);  // Next write-side syscall fails.
  auto failed = (*server)->Apply("tau{P(c)}");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError)
      << failed.status().ToString();

  EXPECT_EQ((*server)->CurrentSnapshot()->version, version_before);
  EXPECT_EQ((*server)->CurrentSnapshot()->kb, before);
  EXPECT_EQ((*server)->stats().commits, commits_before);
  EXPECT_EQ((*server)->store()->lsn(), lsn_before);

  // The transient fault is gone; the write path must be fully recovered.
  auto retried = (*server)->Apply("tau{P(c)}");
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(*retried, version_before + 1);
  EXPECT_EQ((*server)->store()->lsn(), lsn_before + 1);
  std::unique_ptr<Session> session = (*server)->StartSession();
  auto read = session->Holds("P(c)");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->holds);
}

TEST(ServeServerTest, FailedAutoCheckpointDoesNotFailItsCommit) {
  // The automatic checkpoint runs after the commit is fsynced, published and
  // counted, so its failure must not report the commit as failed: Apply
  // returns the version and runs the semi-sync waiter, the failure is
  // counted, and the next commit retries the checkpoint.
  store::FaultInjectionEnv env;
  store::StoreOptions store_options;
  store_options.env = &env;
  ServerOptions options;
  options.checkpoint_every = 1;
  auto server = Server::OpenDurable("db", SmallKb(), store_options, options);
  ASSERT_TRUE(server.ok()) << server.status().message();
  std::vector<uint64_t> waited;
  (*server)->SetCommitWaiter([&waited](uint64_t lsn) {
    waited.push_back(lsn);
    return Status::OK();
  });

  // Op 1 is the WAL append, op 2 its fsync, op 3 the checkpoint's tmp-file
  // open.
  env.FailAt(3, store::FaultKind::kFail);
  auto applied = (*server)->Apply("tau{P(b)}");
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, 1u);
  EXPECT_EQ(waited, std::vector<uint64_t>{1});
  EXPECT_EQ((*server)->CurrentSnapshot()->version, 1u);
  EXPECT_EQ((*server)->store()->lsn(), 1u);
  EXPECT_EQ((*server)->stats().commits, 1u);
  EXPECT_EQ((*server)->stats().checkpoint_failures, 1u);
  EXPECT_FALSE(env.FileExists("db/" + store::CheckpointFileName(1)));

  // Recovery on the same env finds the commit in the WAL.
  Engine engine;
  auto recovered = store::RecoverStore(&env, "db", engine);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->lsn, 1u);
  EXPECT_EQ(recovered->kb, (*server)->CurrentSnapshot()->kb);

  // The next commit succeeds and writes the checkpoint that is still due.
  auto next = (*server)->Apply("tau{P(c)}");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, 2u);
  EXPECT_EQ(waited, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ((*server)->stats().checkpoint_failures, 1u);
  EXPECT_TRUE(env.FileExists("db/" + store::CheckpointFileName(2)));
  EXPECT_TRUE(env.FileExists("db/" + store::WalFileName(2)));

  // A checkpoint that leaves the store broken (its fresh WAL cannot be
  // opened) does not fail its own commit either, but the next Apply fails
  // with the broken-store error and publishes nothing.
  env.FailAt(8, store::FaultKind::kFail);  // After 2 WAL + 5 checkpoint ops.
  auto third = (*server)->Apply("tau{P(d)}");
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(*third, 3u);
  EXPECT_EQ((*server)->stats().checkpoint_failures, 2u);
  ASSERT_TRUE((*server)->store()->broken());
  auto refused = (*server)->Apply("tau{P(e)}");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kIOError);
  EXPECT_NE(refused.status().message().find("broken"), std::string::npos)
      << refused.status().ToString();
  EXPECT_EQ((*server)->CurrentSnapshot()->version, 3u);
}

TEST(ServeServerTest, DurablePipelineApplyIsReplayed) {
  const std::string dir = FreshDir("kbt_serve_test_pipeline");
  Knowledgebase committed{Schema()};
  {
    auto server = Server::OpenDurable(dir, SmallKb());
    ASSERT_TRUE(server.ok());
    Pipeline pipeline;
    pipeline.Tau("P(b) | P(c)").Glb();
    ASSERT_TRUE((*server)->Apply(pipeline.ToString()).ok());
    committed = (*server)->CurrentSnapshot()->kb;
  }
  auto server = Server::OpenDurable(dir, Knowledgebase(Schema()));
  ASSERT_TRUE(server.ok()) << server.status().message();
  EXPECT_EQ((*server)->CurrentSnapshot()->kb, committed);
}

}  // namespace
}  // namespace kbt::serve
