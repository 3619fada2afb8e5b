/// \file
/// Tests for the domain-keyed grounding cache: hit/miss accounting, value
/// sharing (one grounding per distinct domain), agreement with a direct
/// GroundSentence call, error caching, concurrent access through the pool, and
/// concurrent reads of one sealed grounding.

#include "exec/ground_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "exec/pool.h"
#include "logic/parser.h"

namespace kbt::exec {
namespace {

std::vector<Value> Domain(std::initializer_list<std::string_view> names) {
  std::vector<Value> out;
  for (std::string_view n : names) out.push_back(Name(n));
  return out;
}

TEST(GroundCacheTest, HitMissAccounting) {
  Formula phi = *ParseSentence("forall x: R(x) -> S(x)");
  GroundingCache cache;
  GrounderOptions opts;

  auto a1 = cache.GetOrGround(phi, Domain({"a", "b"}), opts);
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  auto a2 = cache.GetOrGround(phi, Domain({"a", "b"}), opts);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  // Same domain → the same shared grounding, not an equal copy.
  EXPECT_EQ(a1->get(), a2->get());

  auto b = cache.GetOrGround(phi, Domain({"a", "c"}), opts);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_NE(a1->get(), b->get());
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(GroundCacheTest, MatchesDirectGrounding) {
  Formula phi = *ParseSentence("forall x, y: R(x, y) -> (S(x) | S(y))");
  std::vector<Value> domain = Domain({"a", "b", "c"});
  GroundingCache cache;
  GrounderOptions opts;

  auto cached = cache.GetOrGround(phi, domain, opts);
  ASSERT_TRUE(cached.ok());
  StatusOr<Grounding> direct = GroundSentence(phi, domain, opts);
  ASSERT_TRUE(direct.ok());

  // Grounding is deterministic in (φ, domain): identical circuit shape, root
  // and atom table, and the cached mentioned set is CollectVars of the root.
  EXPECT_EQ((*cached)->grounding.circuit.size(), direct->circuit.size());
  EXPECT_EQ((*cached)->grounding.root, direct->root);
  EXPECT_EQ((*cached)->grounding.atoms.size(), direct->atoms.size());
  EXPECT_EQ((*cached)->mentioned, direct->circuit.CollectVars(direct->root));
  for (size_t i = 0; i < direct->atoms.size(); ++i) {
    EXPECT_EQ((*cached)->grounding.atoms.AtomOf(static_cast<int>(i)),
              direct->atoms.AtomOf(static_cast<int>(i)));
  }
}

TEST(GroundCacheTest, SplitsTheRootIntoAtomDisjointComponents) {
  GrounderOptions opts;
  std::vector<Value> domain = Domain({"a", "b", "c"});
  // The last two conjuncts share Q(b, a): one component of three atoms.
  auto split = MakeCachedGrounding(
      *ParseSentence("P(a) & !P(b) & (Q(a, b) | Q(b, a)) & (Q(b, a) | P(c))"),
      domain, opts);
  ASSERT_TRUE(split.ok());
  const CachedGrounding& g = **split;
  ASSERT_EQ(g.components.size(), 3u);
  std::vector<size_t> sizes;
  std::vector<int> all;
  // The key layout: each component's atoms in turn, each from a fresh word.
  size_t word = 0;
  for (const GroundingComponent& c : g.components) {
    sizes.push_back(c.atoms.size());
    EXPECT_EQ(g.grounding.circuit.CollectVars(c.root), c.atoms);
    for (size_t k = 0; k < c.atoms.size(); ++k) {
      EXPECT_EQ(g.key_bit[static_cast<size_t>(c.atoms[k])], 64 * word + k);
    }
    word += (c.atoms.size() + 63) / 64;
    all.insert(all.end(), c.atoms.begin(), c.atoms.end());
  }
  EXPECT_EQ(g.key_words, word);
  EXPECT_EQ(sizes, (std::vector<size_t>{1, 1, 3}));
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, g.mentioned);  // A partition of the mentioned atoms.

  // ∀ over three values: one component per value.
  auto per_value = MakeCachedGrounding(
      *ParseSentence("forall x: P(x) -> Q(x, x)"), domain, opts);
  ASSERT_TRUE(per_value.ok());
  EXPECT_EQ((*per_value)->components.size(), 3u);

  // A root that is one component records none.
  for (const char* text : {"P(a) | P(b)", "(P(a) | P(b)) & (P(b) | P(c))"}) {
    auto whole = MakeCachedGrounding(*ParseSentence(text), domain, opts);
    ASSERT_TRUE(whole.ok());
    EXPECT_TRUE((*whole)->components.empty()) << text;
    // Its key holds `mentioned` in order.
    const CachedGrounding& w = **whole;
    for (size_t k = 0; k < w.mentioned.size(); ++k) {
      EXPECT_EQ(w.key_bit[static_cast<size_t>(w.mentioned[k])], k) << text;
    }
  }
}

TEST(GroundCacheTest, BudgetErrorIsCachedPerDomain) {
  // A quantifier-deep sentence over a 3-value domain blows a tiny node budget.
  Formula phi = *ParseSentence(
      "forall x, y, z: (R(x, y) & R(y, z)) -> (R(x, z) | S(x))");
  GroundingCache cache;
  GrounderOptions opts;
  opts.max_nodes = 4;

  auto r1 = cache.GetOrGround(phi, Domain({"a", "b", "c"}), opts);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kResourceExhausted);
  // The error is remembered: a repeat lookup is a hit, not a re-grounding.
  auto r2 = cache.GetOrGround(phi, Domain({"a", "b", "c"}), opts);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(GroundCacheTest, ConcurrentLookupsGroundOnce) {
  Formula phi = *ParseSentence("forall x, y: R(x, y) -> S(y, x)");
  GroundingCache cache;
  GrounderOptions opts;
  std::vector<Value> domain = Domain({"a", "b", "c", "d"});

  constexpr size_t kLookups = 64;
  std::vector<std::shared_ptr<const CachedGrounding>> seen(kLookups);
  std::atomic<int> failures{0};
  {
    ThreadPool pool(4);
    pool.ParallelFor(kLookups, [&](size_t i, size_t) {
      auto r = cache.GetOrGround(phi, domain, opts);
      if (r.ok()) {
        seen[i] = *r;
      } else {
        ++failures;
      }
    });
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, kLookups - 1);
  for (size_t i = 1; i < kLookups; ++i) {
    EXPECT_EQ(seen[i].get(), seen[0].get());
  }
}

TEST(GroundCacheTest, FourThreadsReadOneSealedGrounding) {
  // τ's pass A shape: every worker looks its world's delta tuples up in the
  // one shared grounding, reads their key bits and atoms, and μ walks the
  // circuit. The answers come from an unsealed grounding of the same
  // sentence, whose atom ids and nodes are the same.
  Formula phi = *ParseSentence("forall x, y: R(x, y) -> (S(y, x) | T(x))");
  std::vector<Value> domain = Domain({"a", "b", "c", "d", "e"});
  auto made = MakeCachedGrounding(phi, domain, GrounderOptions());
  ASSERT_TRUE(made.ok());
  const CachedGrounding& g = **made;
  StatusOr<Grounding> reference = GroundSentence(phi, domain);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(g.grounding.circuit.size(), reference->circuit.size());

  struct Probe {
    Symbol relation;
    std::vector<Value> values;
    int want;
  };
  std::vector<Probe> probes;
  for (Value x : domain) {
    for (const char* r : {"T", "U"}) probes.push_back({Name(r), {x}, -1});
    for (Value y : domain) {
      for (const char* r : {"R", "S", "T"}) {
        probes.push_back({Name(r), {x, y}, -1});
      }
    }
  }
  for (Probe& p : probes) {
    p.want = reference->atoms.Find(p.relation, TupleView(p.values.data(),
                                                          p.values.size()));
  }
  constexpr int kThreads = 4;
  constexpr uint64_t kRounds = 64;
  auto value = [](uint64_t round) {
    return [round](int atom) {
      return ((Mix64(round + 1) >> (static_cast<unsigned>(atom) % 64)) & 1) !=
             0;
    };
  };
  std::vector<bool> want_root;
  for (uint64_t round = 0; round < kThreads * kRounds; ++round) {
    want_root.push_back(
        reference->circuit.Evaluate(reference->root, value(round)));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t k = 0; k < kRounds; ++k) {
        for (const Probe& p : probes) {
          const TupleView view(p.values.data(), p.values.size());
          const int id = g.grounding.atoms.Find(p.relation, view);
          if (id != p.want) ++mismatches;
          if (id < 0) continue;
          if (g.grounding.atoms.AtomOf(id) != GroundAtom{p.relation, view} ||
              g.key_bit[static_cast<size_t>(id)] == kNoKeyBit) {
            ++mismatches;
          }
        }
        const uint64_t round = k * kThreads + static_cast<uint64_t>(t);
        if (g.grounding.circuit.Evaluate(g.grounding.root, value(round)) !=
            want_root[round]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace kbt::exec
