#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "rel/knowledgebase.h"
#include "store/checkpoint.h"
#include "testutil.h"

namespace kbt {
namespace {

using testutil::RandomDatabase;

Database Db(std::initializer_list<std::initializer_list<std::string_view>> tuples) {
  return *MakeDatabase({{"R", 2}}, {{"R", tuples}});
}

TEST(KnowledgebaseTest, FromDatabasesDedupsAndSorts) {
  Database a = Db({{"a", "b"}});
  Database b = Db({{"b", "c"}});
  auto kb = Knowledgebase::FromDatabases({b, a, a});
  ASSERT_TRUE(kb.ok());
  EXPECT_EQ(kb->size(), 2u);
  EXPECT_TRUE(kb->Contains(a));
  EXPECT_TRUE(kb->Contains(b));
}

TEST(KnowledgebaseTest, FromDatabasesAnchorsTheSmallestMemberInAnyOrder) {
  // The base is the smallest member (the first world in canonical order),
  // whatever order the members arrive in and however often each repeats, so
  // every permutation yields the same base and the same checkpoint bytes.
  std::vector<Database> members = {Db({{"b", "c"}}), Db({{"a", "b"}}),
                                   Db({{"a", "b"}, {"c", "d"}}), Db({}),
                                   Db({{"a", "b"}}), Db({})};
  std::sort(members.begin(), members.end());
  Knowledgebase sorted = *Knowledgebase::FromDatabases(members);
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(*sorted.base(), members.front());
  EXPECT_EQ(sorted.World(0), members.front());
  const std::string bytes = store::EncodeCheckpoint(sorted, 1);
  size_t permutations = 0;
  do {
    Knowledgebase kb = *Knowledgebase::FromDatabases(members);
    ASSERT_EQ(*kb.base(), *sorted.base()) << "permutation " << permutations;
    ASSERT_EQ(store::EncodeCheckpoint(kb, 1), bytes)
        << "permutation " << permutations;
    ++permutations;
  } while (std::next_permutation(members.begin(), members.end()));
  EXPECT_EQ(permutations, 180u);  // 6! / (2! · 2!) distinct orders.
}

TEST(KnowledgebaseTest, OverlayConstructorsMatchFromDatabasesUnderDuplicates) {
  // Forced duplicates make the dedup do real work. FromBaseAndOverlays over
  // any base gives FromDatabases's kb, over FromDatabases's own base the very
  // same overlay sequence, and UnionAll over parts gives it too.
  std::mt19937_64 rng(20260808);
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<Database> dbs;
    int k = 12 + iter % 9;
    for (int i = 0; i < k; ++i) dbs.push_back(RandomDatabase(&rng));
    for (int i = 0; i < 6; ++i) dbs.push_back(dbs[i]);  // Forced duplicates.
    Knowledgebase flat = *Knowledgebase::FromDatabases(dbs);

    for (const std::shared_ptr<const Database>& base :
         {std::make_shared<const Database>(dbs.front()), flat.base()}) {
      std::vector<WorldOverlay> overlays;
      overlays.reserve(dbs.size());
      for (const Database& db : dbs) {
        overlays.push_back(WorldOverlay::FromDiff(*base, db));
      }
      StatusOr<Knowledgebase> kb =
          Knowledgebase::FromBaseAndOverlays(base, std::move(overlays));
      ASSERT_TRUE(kb.ok()) << kb.status();
      ASSERT_EQ(flat, *kb) << "iter " << iter;
      if (base == flat.base()) {
        ASSERT_EQ(kb->overlays(), flat.overlays()) << "iter " << iter;
      }
    }

    std::vector<Knowledgebase> parts;
    for (size_t start = 0; start < dbs.size(); start += 5) {
      std::vector<Database> chunk(
          dbs.begin() + start,
          dbs.begin() + std::min(start + 5, dbs.size()));
      parts.push_back(*Knowledgebase::FromDatabases(std::move(chunk)));
    }
    StatusOr<Knowledgebase> united = Knowledgebase::UnionAll(std::move(parts));
    ASSERT_TRUE(united.ok()) << united.status();
    ASSERT_EQ(flat, *united) << "iter " << iter;
  }
}

TEST(KnowledgebaseTest, FromBaseAndOverlaysKeepsCanonicalOrderAndSortsTheRest) {
  // A kb's own overlays are already canonical and come back as they are. A
  // shuffled copy, a copy with one adjacent duplicate and a copy with only
  // its last pair swapped are sorted and deduplicated into the same
  // sequence, and each equals the kb FromDatabases builds from its worlds.
  std::mt19937_64 rng(1717);
  int checked = 0;
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<Database> dbs;
    for (int i = 0, k = 2 + iter % 12; i < k; ++i) {
      dbs.push_back(RandomDatabase(&rng));
    }
    Knowledgebase kb = *Knowledgebase::FromDatabases(std::move(dbs));
    if (kb.size() < 2) continue;
    const std::vector<WorldOverlay>& own = kb.overlays();
    const size_t n = own.size();
    std::vector<std::vector<WorldOverlay>> inputs(4, own);
    std::shuffle(inputs[1].begin(), inputs[1].end(), rng);
    const size_t dup = static_cast<size_t>(iter) % n;
    inputs[2].insert(inputs[2].begin() + dup + 1, own[dup]);
    std::swap(inputs[3][n - 2], inputs[3][n - 1]);
    for (size_t v = 0; v < inputs.size(); ++v) {
      std::vector<Database> worlds;
      for (const WorldOverlay& ov : inputs[v]) {
        worlds.push_back(ov.ApplyTo(*kb.base()));
      }
      StatusOr<Knowledgebase> got =
          Knowledgebase::FromBaseAndOverlays(kb.base(), inputs[v]);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->overlays(), own) << "iter " << iter << " input " << v;
      EXPECT_EQ(*got, *Knowledgebase::FromDatabases(std::move(worlds)))
          << "iter " << iter << " input " << v;
    }
    ++checked;
  }
  EXPECT_GT(checked, 30);
}

/// A random world over a binary, a unary and a nullary relation on four
/// constants: small enough that random draws repeat.
Database SmallWorld(std::mt19937_64* rng) {
  std::bernoulli_distribution coin(0.3);
  const char* constants[] = {"ka", "kb", "kc", "kd"};
  Relation::Builder r(2), p(1), f(0);
  for (const char* x : constants) {
    if (coin(*rng)) p.Append({Name(x)});
    for (const char* y : constants) {
      if (coin(*rng)) r.Append({Name(x), Name(y)});
    }
  }
  if (coin(*rng)) f.Append(TupleView());
  Schema schema = *Schema::Of({{"R", 2}, {"P", 1}, {"F", 0}});
  return *Database::Create(schema, {r.Build(), p.Build(), f.Build()});
}

TEST(KnowledgebaseTest, RunMergeMatchesTheFlatOrderOnEveryRunShape) {
  // Canonicalization splits a sequence into strictly increasing runs and
  // merges them, keeping one of two equal worlds. Over sequences of one run,
  // two runs, many runs, reversed, and with duplicates inside and across
  // runs, FromBaseAndOverlays must give FromDatabases's kb and the flat
  // sort-and-unique order of the same worlds.
  std::mt19937_64 rng(2107);
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<Database> distinct;
    for (int i = 0; i < 24; ++i) distinct.push_back(SmallWorld(&rng));
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    const size_t n = distinct.size();
    ASSERT_GE(n, 4u);
    auto base = std::make_shared<const Database>(distinct[n / 2]);
    std::vector<WorldOverlay> sorted;
    for (const Database& db : distinct) {
      sorted.push_back(WorldOverlay::FromDiff(*base, db));
    }
    std::vector<std::pair<std::string, std::vector<WorldOverlay>>> shapes;
    shapes.emplace_back("one run", sorted);
    std::vector<WorldOverlay> two(sorted.begin() + n / 3, sorted.end());
    two.insert(two.end(), sorted.begin(), sorted.begin() + n / 3);
    shapes.emplace_back("two runs", two);
    std::vector<WorldOverlay> many = sorted;
    std::shuffle(many.begin(), many.end(), rng);
    shapes.emplace_back("many runs", many);
    shapes.emplace_back("reversed",
                        std::vector<WorldOverlay>(sorted.rbegin(), sorted.rend()));
    std::vector<WorldOverlay> inside = sorted;
    inside.insert(inside.begin() + n / 2, sorted[n / 2]);
    inside.insert(inside.begin() + 1, sorted[0]);
    shapes.emplace_back("duplicates inside a run", inside);
    std::vector<WorldOverlay> across = sorted;
    across.insert(across.end(), sorted.begin(), sorted.begin() + n / 2);
    across.insert(across.end(), sorted.begin() + n / 4, sorted.end());
    shapes.emplace_back("duplicates across runs", across);
    std::vector<WorldOverlay> shuffled_dups = across;
    std::shuffle(shuffled_dups.begin(), shuffled_dups.end(), rng);
    shapes.emplace_back("shuffled duplicates", shuffled_dups);

    for (const auto& [what, overlays] : shapes) {
      const std::string where = "iter " + std::to_string(iter) + ", " + what;
      std::vector<Database> worlds;
      for (const WorldOverlay& ov : overlays) worlds.push_back(ov.ApplyTo(*base));
      StatusOr<Knowledgebase> got =
          Knowledgebase::FromBaseAndOverlays(base, overlays);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_EQ(got->size(), n) << where;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got->World(i), distinct[i]) << where << ", world " << i;
      }
      EXPECT_EQ(*got, *Knowledgebase::FromDatabases(std::move(worlds)))
          << where;
    }
  }
}

TEST(KnowledgebaseTest, FromWorldOutputsMatchesFromBaseAndOverlays) {
  // τ-shaped outputs: each input world's overlay kept as it is at every σ(kb)
  // position, plus deltas at relations the extended schema appends; zero to
  // three outputs per world, in any order, with repeats. FromWorldOutputs
  // must give FromBaseAndOverlays's kb, and must fall back to it when an
  // output changes or drops a σ(kb) delta or re-creates one in new storage.
  std::mt19937_64 rng(2108);
  const Schema extended =
      *Schema::Of({{"R", 2}, {"P", 1}, {"F", 0}, {"N", 1}, {"M", 0}});
  const uint32_t n_pos = 3, m_pos = 4;
  std::bernoulli_distribution coin(0.5);
  std::uniform_int_distribution<int> outputs_of(0, 3);
  int checked = 0;
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<Database> dbs;
    for (int i = 0; i < 10; ++i) dbs.push_back(SmallWorld(&rng));
    Knowledgebase input = *Knowledgebase::FromDatabases(std::move(dbs));
    if (input.size() < 3) continue;
    auto ext = std::make_shared<const Database>(*input.base()->ExtendTo(extended));
    std::vector<WorldOverlay> outputs;
    std::vector<size_t> first = {0};
    for (const WorldOverlay& in : input.overlays()) {
      int count = outputs_of(rng);
      for (int k = 0; k < count; ++k) {
        std::vector<RelationDelta> deltas = in.deltas();
        Relation::Builder adds(1);
        for (const char* x : {"ka", "kb"}) {
          if (coin(rng)) adds.Append({Name(x)});
        }
        deltas.push_back(RelationDelta{n_pos, adds.Build(), Relation(1)});
        if (coin(rng)) {
          deltas.push_back(RelationDelta{m_pos, Relation(0, {Tuple{}}), Relation(0)});
        }
        outputs.push_back(WorldOverlay::FromDeltas(std::move(deltas)));
      }
      first.push_back(outputs.size());
    }
    if (outputs.empty()) continue;

    auto check = [&](const std::vector<WorldOverlay>& outs, const std::string& what) {
      StatusOr<Knowledgebase> got =
          Knowledgebase::FromWorldOutputs(input, ext, outs, first);
      StatusOr<Knowledgebase> want = Knowledgebase::FromBaseAndOverlays(ext, outs);
      ASSERT_TRUE(got.ok() && want.ok()) << what;
      EXPECT_EQ(got->schema(), extended) << what;
      EXPECT_EQ(got->overlays(), want->overlays())
          << "iter " << iter << ", " << what;
    };
    check(outputs, "outputs that keep σ(kb)");

    // The first world's first output takes the last world's σ(kb) deltas:
    // grouped under world 0, it belongs near the end.
    const size_t worlds = input.size();
    auto with_first_output_of = [&](size_t world, auto edit) {
      std::vector<WorldOverlay> outs = outputs;
      if (first[world] == first[world + 1]) return outs;
      WorldOverlay& target = outs[first[world]];
      std::vector<RelationDelta> deltas = edit(target.deltas());
      target = WorldOverlay::FromDeltas(std::move(deltas));
      return outs;
    };
    check(with_first_output_of(0, [&](const std::vector<RelationDelta>& d) {
            std::vector<RelationDelta> out = input.overlays()[worlds - 1].deltas();
            for (const RelationDelta& x : d) {
              if (x.pos >= n_pos) out.push_back(x);
            }
            return out;
          }),
          "an output that changes its σ(kb) deltas");
    check(with_first_output_of(worlds - 1, [&](const std::vector<RelationDelta>& d) {
            std::vector<RelationDelta> out;
            for (const RelationDelta& x : d) {
              if (x.pos >= n_pos) out.push_back(x);
            }
            return out;
          }),
          "an output that drops its σ(kb) deltas");
    check(with_first_output_of(worlds - 1, [&](const std::vector<RelationDelta>& d) {
            std::vector<RelationDelta> out;
            for (const RelationDelta& x : d) {
              if (x.pos >= n_pos) {
                out.push_back(x);
                continue;
              }
              Relation::Builder adds(x.adds.arity()), dels(x.dels.arity());
              for (TupleView t : x.adds) adds.Append(t);
              for (TupleView t : x.dels) dels.Append(t);
              out.push_back(RelationDelta{x.pos, adds.Build(), dels.Build()});
            }
            return out;
          }),
          "an output that re-creates its σ(kb) deltas in new storage");
    ++checked;
  }
  EXPECT_GT(checked, 20);
}

TEST(KnowledgebaseTest, MixedSchemasRejected) {
  Database a = Db({{"a", "b"}});
  Database other = *MakeDatabase({{"S", 1}}, {});
  EXPECT_FALSE(Knowledgebase::FromDatabases({a, other}).ok());
}

TEST(KnowledgebaseTest, EmptyVsSingletonEmptyDatabase) {
  // An empty kb (inconsistent: no possible worlds) is NOT the kb containing one
  // empty database.
  Knowledgebase none(*Schema::Of({{"R", 2}}));
  Knowledgebase one = Knowledgebase::Singleton(Db({}));
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(one.size(), 1u);
  EXPECT_NE(none, one);
}

TEST(KnowledgebaseTest, GlbLubMatchPaperExample) {
  // §2: kb = {(<{a1a2, a1a4}>), (<{a1a4, a2a3}>)};
  // ⊓(kb) = {<{a1a4}>}, ⊔(kb) = {<{a1a2, a2a3, a1a4}>}.
  Database d1 = Db({{"a1", "a2"}, {"a1", "a4"}});
  Database d2 = Db({{"a1", "a4"}, {"a2", "a3"}});
  Knowledgebase kb = *Knowledgebase::FromDatabases({d1, d2});
  Knowledgebase glb = kb.Glb();
  ASSERT_EQ(glb.size(), 1u);
  EXPECT_EQ(*glb.World(0).RelationFor("R"), MakeRelation(2, {{"a1", "a4"}}));
  Knowledgebase lub = kb.Lub();
  ASSERT_EQ(lub.size(), 1u);
  EXPECT_EQ(*lub.World(0).RelationFor("R"),
            MakeRelation(2, {{"a1", "a2"}, {"a1", "a4"}, {"a2", "a3"}}));
}

TEST(KnowledgebaseTest, GlbLubOnEmptyAndSingleton) {
  Knowledgebase none(*Schema::Of({{"R", 2}}));
  EXPECT_TRUE(none.Glb().empty());
  EXPECT_TRUE(none.Lub().empty());
  Knowledgebase one = Knowledgebase::Singleton(Db({{"a", "b"}}));
  EXPECT_EQ(one.Glb(), one);
  EXPECT_EQ(one.Lub(), one);
}

TEST(KnowledgebaseTest, UnionAllOfTwo) {
  Knowledgebase kb1 = Knowledgebase::Singleton(Db({{"a", "b"}}));
  Knowledgebase kb2 = *Knowledgebase::FromDatabases({Db({{"a", "b"}}), Db({})});
  Knowledgebase u = *Knowledgebase::UnionAll({kb1, kb2});
  EXPECT_EQ(u.size(), 2u);
  // Empty operands.
  Knowledgebase none;
  EXPECT_EQ(*Knowledgebase::UnionAll({none, kb1}), kb1);
  EXPECT_EQ(*Knowledgebase::UnionAll({kb1, none}), kb1);
}

TEST(KnowledgebaseTest, ProjectTo) {
  Database db = *MakeDatabase({{"R", 2}, {"S", 1}},
                              {{"R", {{"a", "b"}}}, {"S", {{"c"}}}});
  Knowledgebase kb = Knowledgebase::Singleton(db);
  Knowledgebase p = *kb.ProjectTo({Name("S")});
  EXPECT_EQ(p.schema().size(), 1u);
  EXPECT_EQ(p.World(0).RelationFor("S")->size(), 1u);
  // Projection can merge worlds that agree on the kept relations.
  Database db2 = *MakeDatabase({{"R", 2}, {"S", 1}},
                               {{"R", {{"x", "y"}}}, {"S", {{"c"}}}});
  Knowledgebase two = *Knowledgebase::FromDatabases({db, db2});
  EXPECT_EQ(two.size(), 2u);
  EXPECT_EQ(two.ProjectTo({Name("S")})->size(), 1u);
}

TEST(KnowledgebaseTest, ExtendTo) {
  Knowledgebase kb = Knowledgebase::Singleton(Db({{"a", "b"}}));
  Schema super = *Schema::Of({{"R", 2}, {"T", 1}});
  Knowledgebase big = *kb.ExtendTo(super);
  EXPECT_EQ(big.schema(), super);
  EXPECT_TRUE(big.World(0).RelationFor("T")->empty());
}

}  // namespace
}  // namespace kbt
