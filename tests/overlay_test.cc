#include "rel/overlay.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/engine.h"
#include "rel/knowledgebase.h"

namespace kbt {
namespace {

// Schema with a binary, a unary and a nullary relation, so every delta shape
// (including the empty-tuple edge cases) shows up in the randomized workloads.
Schema TestSchema() { return *Schema::Of({{"R", 2}, {"S", 1}, {"Z", 0}}); }

Value Val(int i) { return Name("c" + std::to_string(i)); }

Relation RandomRelation(std::mt19937& rng, size_t arity, int universe,
                        double density) {
  if (arity == 0) {
    return std::bernoulli_distribution(density)(rng)
               ? Relation(0, {Tuple{}})
               : Relation(0);
  }
  Relation::Builder b(arity);
  std::bernoulli_distribution keep(density);
  std::uniform_int_distribution<int> pick(0, universe - 1);
  int rows = std::uniform_int_distribution<int>(0, 6)(rng);
  for (int r = 0; r < rows; ++r) {
    if (!keep(rng)) continue;
    Value* row = b.AppendRow();
    for (size_t c = 0; c < arity; ++c) row[c] = Val(pick(rng));
  }
  return b.Build();
}

Database RandomDatabase(std::mt19937& rng, int universe = 4,
                        double density = 0.7) {
  Schema schema = TestSchema();
  std::vector<Relation> rels;
  for (const RelationDecl& d : schema.decls()) {
    rels.push_back(RandomRelation(rng, d.arity, universe, density));
  }
  return *Database::Create(std::move(schema), std::move(rels));
}

// A random small edit of `base`: flip a few tuple memberships.
Database RandomEdit(std::mt19937& rng, const Database& base) {
  Database out = base;
  std::uniform_int_distribution<size_t> pick_pos(0, base.schema().size() - 1);
  int edits = std::uniform_int_distribution<int>(0, 4)(rng);
  for (int e = 0; e < edits; ++e) {
    size_t p = pick_pos(rng);
    const Relation& r = out.relation_at(p);
    if (r.arity() == 0) {
      out.ReplaceRelation(p, r.empty() ? Relation(0, {Tuple{}}) : Relation(0));
      continue;
    }
    Relation flipped = RandomRelation(rng, r.arity(), 4, 0.8);
    out.ReplaceRelation(p, r.SymmetricDifference(flipped));
  }
  return out;
}

TEST(OverlayTest, FromDiffApplyToRoundTrip) {
  std::mt19937 rng(7);
  for (int iter = 0; iter < 300; ++iter) {
    Database base = RandomDatabase(rng);
    Database world = RandomEdit(rng, base);
    WorldOverlay ov = WorldOverlay::FromDiff(base, world);
    EXPECT_TRUE(ov.Validate(base).ok());
    EXPECT_EQ(ov.ApplyTo(base), world);
    EXPECT_EQ(ov.identity(), base == world);
  }
}

TEST(OverlayTest, FromDiffIsUniqueRepresentation) {
  std::mt19937 rng(11);
  for (int iter = 0; iter < 200; ++iter) {
    Database base = RandomDatabase(rng);
    Database w1 = RandomEdit(rng, base);
    Database w2 = RandomEdit(rng, base);
    WorldOverlay o1 = WorldOverlay::FromDiff(base, w1);
    WorldOverlay o2 = WorldOverlay::FromDiff(base, w2);
    EXPECT_EQ(w1 == w2, o1 == o2);
  }
}

TEST(OverlayTest, ComposeMatchesSequentialApplication) {
  std::mt19937 rng(13);
  for (int iter = 0; iter < 300; ++iter) {
    Database base = RandomDatabase(rng);
    Database mid = RandomEdit(rng, base);
    Database fin = RandomEdit(rng, mid);
    WorldOverlay first = WorldOverlay::FromDiff(base, mid);
    WorldOverlay second = WorldOverlay::FromDiff(mid, fin);
    WorldOverlay composed = WorldOverlay::Compose(first, second);
    // The composition is canonical relative to the *original* base and lands
    // on the final world in one application.
    EXPECT_TRUE(composed.Validate(base).ok());
    EXPECT_EQ(composed.ApplyTo(base), fin);
    EXPECT_EQ(composed, WorldOverlay::FromDiff(base, fin));
  }
}

TEST(OverlayTest, CompareWorldsOnBaseMatchesFlatOrder) {
  std::mt19937 rng(17);
  for (int iter = 0; iter < 500; ++iter) {
    Database base = RandomDatabase(rng);
    Database w1 = RandomEdit(rng, base);
    Database w2 = RandomEdit(rng, base);
    WorldOverlay o1 = WorldOverlay::FromDiff(base, w1);
    WorldOverlay o2 = WorldOverlay::FromDiff(base, w2);
    int cmp = CompareWorldsOnBase(base, o1, o2);
    if (w1 < w2) {
      EXPECT_LT(cmp, 0) << w1.ToString() << " vs " << w2.ToString();
    } else if (w2 < w1) {
      EXPECT_GT(cmp, 0) << w1.ToString() << " vs " << w2.ToString();
    } else {
      EXPECT_EQ(cmp, 0) << w1.ToString() << " vs " << w2.ToString();
    }
    EXPECT_EQ(cmp, -CompareWorldsOnBase(base, o2, o1));
  }
}

TEST(OverlayTest, CompareWorldsOnBaseDecidesAtTheBaseLastRow) {
  // The comparator asks whether the world lacking x* = min(S_a Δ S_b) holds
  // a row after x*, and answers from the base relation's last row when that
  // row lies past x* and the world keeps it. Each case is checked against
  // the flat order, both ways round; the first three must not take that
  // answer, the last must.
  Schema schema = *Schema::Of({{"S", 1}});
  Relation s = MakeRelation(1, {{"cmp_p"}, {"cmp_q"}, {"cmp_r"}});
  const Value r0 = s[0][0], r1 = s[1][0], r2 = s[2][0];
  // Interned after the base's values, so they sort after every base row.
  const Value past_a = Name("cmp_past_a");
  const Value past_b = Name("cmp_past_b");
  ASSERT_GT(past_a, r2);
  ASSERT_GT(past_b, past_a);
  Database base = *Database::Create(schema, {s});
  auto world = [&schema](std::initializer_list<Value> rows) {
    Relation::Builder b(1);
    for (Value v : rows) b.Append({v});
    return *Database::Create(schema, {b.Build()});
  };
  struct Case {
    const char* what;
    Database a, b;
  };
  const Case cases[] = {
      {"the other world deletes the base's last row", world({r0, r1}),
       world({r0})},
      {"x* is the base's last row", world({r0, r1}), world({r0, r1, r2})},
      {"x* lies past every row, the other world holds a later add",
       world({r0, r1, r2, past_a}), world({r0, r1, r2, past_b})},
      {"x* lies past every row, the other world holds nothing later",
       world({r0, r1, r2, past_a}), world({r0, r1, r2})},
      {"the base's last row decides", world({r0, r2}), world({r0, r1, r2})},
  };
  for (const Case& c : cases) {
    ASSERT_NE(c.a, c.b) << c.what;
    WorldOverlay oa = WorldOverlay::FromDiff(base, c.a);
    WorldOverlay ob = WorldOverlay::FromDiff(base, c.b);
    const int flat = c.a < c.b ? -1 : 1;
    EXPECT_EQ(CompareWorldsOnBase(base, oa, ob) < 0 ? -1 : 1, flat) << c.what;
    EXPECT_EQ(CompareWorldsOnBase(base, ob, oa) < 0 ? -1 : 1, -flat) << c.what;
  }
}

TEST(OverlayTest, ApplyDeltaSharesStorageWhenUntouched) {
  Database base = *MakeDatabase({{"R", 2}}, {{"R", {{"a", "b"}, {"c", "d"}}}});
  Database same = base;
  WorldOverlay ov = WorldOverlay::FromDiff(base, same);
  EXPECT_TRUE(ov.identity());
  Database applied = ov.ApplyTo(base);
  // Copy-on-write: identical worlds share the relation buffer.
  EXPECT_EQ(applied.relation_at(0).StorageId(), base.relation_at(0).StorageId());
}

TEST(OverlayTest, NullaryOrderingMatchesFlat) {
  // Empty nullary < non-empty nullary in the flat order (rows tiebreak); the
  // overlay comparison must agree in both directions over both base states.
  Schema schema = *Schema::Of({{"Z", 0}});
  for (bool base_has : {false, true}) {
    Database base = *Database::Create(
        schema, {base_has ? Relation(0, {Tuple{}}) : Relation(0)});
    Database with = *Database::Create(schema, {Relation(0, {Tuple{}})});
    Database without = *Database::Create(schema, {Relation(0)});
    WorldOverlay ow = WorldOverlay::FromDiff(base, with);
    WorldOverlay owo = WorldOverlay::FromDiff(base, without);
    EXPECT_LT(CompareWorldsOnBase(base, owo, ow), 0);
    EXPECT_GT(CompareWorldsOnBase(base, ow, owo), 0);
    EXPECT_EQ(CompareWorldsOnBase(base, ow, ow), 0);
  }
}

TEST(OverlayTest, FromDeltasSortsAndDropsEmpty) {
  std::vector<RelationDelta> deltas(3);
  deltas[0].pos = 2;
  deltas[0].adds = Relation(0, {Tuple{}});
  deltas[1].pos = 0;
  deltas[1].adds = MakeRelation(2, {{"x", "y"}});
  deltas[2].pos = 1;  // Empty: dropped.
  WorldOverlay ov = WorldOverlay::FromDeltas(std::move(deltas));
  ASSERT_EQ(ov.deltas().size(), 2u);
  EXPECT_EQ(ov.deltas()[0].pos, 0u);
  EXPECT_EQ(ov.deltas()[1].pos, 2u);
  EXPECT_EQ(ov.TupleCount(), 2u);
}

TEST(OverlayTest, ValidateRejectsBrokenInvariants) {
  Database base = *MakeDatabase({{"R", 2}, {"S", 1}},
                                {{"R", {{"a", "b"}}}, {"S", {{"a"}}}});
  {
    // Adds overlapping the base relation.
    std::vector<RelationDelta> d(1);
    d[0].pos = 0;
    d[0].adds = MakeRelation(2, {{"a", "b"}});
    EXPECT_EQ(WorldOverlay::FromDeltas(std::move(d)).Validate(base).code(),
              StatusCode::kDataLoss);
  }
  {
    // Dels not contained in the base relation.
    std::vector<RelationDelta> d(1);
    d[0].pos = 1;
    d[0].dels = MakeRelation(1, {{"z"}});
    EXPECT_EQ(WorldOverlay::FromDeltas(std::move(d)).Validate(base).code(),
              StatusCode::kDataLoss);
  }
  {
    // Position outside the schema.
    std::vector<RelationDelta> d(1);
    d[0].pos = 5;
    d[0].adds = MakeRelation(2, {{"x", "y"}});
    EXPECT_EQ(WorldOverlay::FromDeltas(std::move(d)).Validate(base).code(),
              StatusCode::kDataLoss);
  }
  {
    // Arity mismatch.
    std::vector<RelationDelta> d(1);
    d[0].pos = 0;
    d[0].adds = MakeRelation(1, {{"x"}});
    EXPECT_EQ(WorldOverlay::FromDeltas(std::move(d)).Validate(base).code(),
              StatusCode::kDataLoss);
  }
  {
    // A valid overlay passes.
    std::vector<RelationDelta> d(1);
    d[0].pos = 0;
    d[0].adds = MakeRelation(2, {{"x", "y"}});
    d[0].dels = MakeRelation(2, {{"a", "b"}});
    EXPECT_TRUE(WorldOverlay::FromDeltas(std::move(d)).Validate(base).ok());
  }
}

}  // namespace
}  // namespace kbt
