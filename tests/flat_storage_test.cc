/// \file
/// Edge cases of the flat, arity-strided relation storage: zero-ary relations,
/// empty merges, Builder dedup, TupleView ordering/hash consistency with the
/// owning Tuple, and a randomized property test checking every set operation
/// against a naive std::set<std::vector<Value>> reference implementation.

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "rel/relation.h"
#include "testutil.h"

namespace kbt {
namespace {

TEST(FlatStorageTest, ZeroAryAlgebra) {
  Relation empty(0);
  Relation holds = empty.WithTuple(Tuple());
  ASSERT_EQ(holds.size(), 1u);
  ASSERT_TRUE(holds.Contains(Tuple()));

  EXPECT_EQ(empty.Union(holds), holds);
  EXPECT_EQ(holds.Union(holds), holds);
  EXPECT_EQ(empty.Intersect(holds), empty);
  EXPECT_EQ(holds.Intersect(holds), holds);
  EXPECT_EQ(holds.Difference(holds), empty);
  EXPECT_EQ(holds.Difference(empty), holds);
  EXPECT_EQ(holds.SymmetricDifference(holds), empty);
  EXPECT_EQ(holds.SymmetricDifference(empty), holds);
  EXPECT_EQ(empty.SymmetricDifference(holds), holds);
  EXPECT_TRUE(empty.IsSubsetOf(holds));
  EXPECT_TRUE(holds.IsSubsetOf(holds));
  EXPECT_FALSE(holds.IsSubsetOf(empty));
  EXPECT_EQ(holds.WithoutTuple(Tuple()), empty);
  EXPECT_EQ(holds.WithTuple(Tuple()), holds);  // Idempotent.
  EXPECT_LT(empty, holds);                     // {} < {()}.
  EXPECT_NE(empty.Hash(), holds.Hash());
}

TEST(FlatStorageTest, ZeroAryBuilderDedups) {
  Relation::Builder b(0);
  for (int i = 0; i < 5; ++i) b.Append(TupleView());
  Relation r = b.Build();
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.arity(), 0u);
  EXPECT_TRUE(r.Contains(Tuple()));
}

TEST(FlatStorageTest, EmptyMerges) {
  Relation empty(2);
  Relation r(2, {Tuple::Of({"a", "b"}), Tuple::Of({"c", "d"})});
  EXPECT_EQ(empty.Union(empty), empty);
  EXPECT_EQ(empty.Union(r), r);
  EXPECT_EQ(r.Union(empty), r);
  EXPECT_EQ(empty.Intersect(r), empty);
  EXPECT_EQ(r.Intersect(empty), empty);
  EXPECT_EQ(empty.Difference(r), empty);
  EXPECT_EQ(r.Difference(empty), r);
  EXPECT_EQ(empty.SymmetricDifference(r), r);
  EXPECT_EQ(r.SymmetricDifference(empty), r);
  EXPECT_TRUE(empty.IsSubsetOf(r));
  EXPECT_TRUE(empty.IsSubsetOf(empty));
  EXPECT_FALSE(r.IsSubsetOf(empty));
}

TEST(FlatStorageTest, BuilderSortsAndDedups) {
  // Rows sort by interned symbol id; intern in ascending name order so the
  // id order matches the name order regardless of which tests ran before.
  for (std::string_view n : {"a", "b", "c", "z"}) Name(n);
  Relation::Builder b(2);
  b.Reserve(4);
  b.Append({Name("b"), Name("c")});
  b.Append({Name("a"), Name("b")});
  b.Append({Name("b"), Name("c")});
  Value* row = b.AppendRow();
  row[0] = Name("a");
  row[1] = Name("a");
  EXPECT_EQ(b.rows(), 4u);
  Relation r = b.Build();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.flat().size(), 6u);
  EXPECT_TRUE(std::is_sorted(r.begin(), r.end()));
  EXPECT_EQ(r[0], TupleView(Tuple::Of({"a", "a"})));
  EXPECT_TRUE(r.Contains(Tuple::Of({"b", "c"})));
  // The builder is reusable after Build.
  b.Append({Name("z"), Name("z")});
  Relation r2 = b.Build();
  EXPECT_EQ(r2.size(), 1u);
}

TEST(FlatStorageTest, BuilderDropLastRow) {
  Relation::Builder b(1);
  b.Append({Name("a")});
  Value* row = b.AppendRow();
  row[0] = Name("b");
  b.DropLastRow();
  Relation r = b.Build();
  EXPECT_EQ(r.size(), 1u);
  EXPECT_FALSE(r.Contains(Tuple::Of({"b"})));
}

TEST(FlatStorageTest, TupleViewOrderingAndHashAgreeWithTuple) {
  std::vector<Tuple> tuples = {
      Tuple(),
      Tuple::Of({"a"}),
      Tuple::Of({"a", "a"}),
      Tuple::Of({"a", "b"}),
      Tuple::Of({"b"}),
      Tuple::Of({"b", "a"}),
  };
  for (const Tuple& s : tuples) {
    for (const Tuple& t : tuples) {
      EXPECT_EQ(TupleView(s) == TupleView(t), s == t) << s.ToString();
      EXPECT_EQ(TupleView(s) < TupleView(t), s < t)
          << s.ToString() << " vs " << t.ToString();
    }
    EXPECT_EQ(TupleView(s).Hash(), s.Hash());
    EXPECT_EQ(TupleView(s).ToTuple(), s);
    EXPECT_EQ(TupleView(s).ToString(), s.ToString());
  }
}

TEST(FlatStorageTest, IterationYieldsRowsInOrder) {
  // Pin symbol ids to name order (see BuilderSortsAndDedups).
  for (std::string_view n : {"a", "b", "c"}) Name(n);
  Relation r(2, {Tuple::Of({"c", "a"}), Tuple::Of({"a", "b"}), Tuple::Of({"b", "b"})});
  std::vector<Tuple> seen;
  for (TupleView t : r) seen.push_back(t.ToTuple());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.front(), Tuple::Of({"a", "b"}));
  EXPECT_EQ(r.front(), TupleView(seen.front()));
}

// ---------------------------------------------------------------------------
// Property test: flat merges agree with a naive set-of-vectors reference.
// ---------------------------------------------------------------------------

using testutil::FromRef;
using testutil::RandomRef;
using testutil::RefSet;
using testutil::ToRef;

class FlatSetOpsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FlatSetOpsPropertyTest, AgreesWithNaiveReference) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  for (size_t arity : {size_t{0}, size_t{1}, size_t{2}, size_t{3}}) {
    RefSet ra = RandomRef(arity, 12, &rng);
    RefSet rb = RandomRef(arity, 12, &rng);
    Relation a = FromRef(arity, ra);
    Relation b = FromRef(arity, rb);
    ASSERT_EQ(ToRef(a), ra);

    RefSet ref_union, ref_inter, ref_diff, ref_sym;
    std::set_union(ra.begin(), ra.end(), rb.begin(), rb.end(),
                   std::inserter(ref_union, ref_union.end()));
    std::set_intersection(ra.begin(), ra.end(), rb.begin(), rb.end(),
                          std::inserter(ref_inter, ref_inter.end()));
    std::set_difference(ra.begin(), ra.end(), rb.begin(), rb.end(),
                        std::inserter(ref_diff, ref_diff.end()));
    std::set_symmetric_difference(ra.begin(), ra.end(), rb.begin(), rb.end(),
                                  std::inserter(ref_sym, ref_sym.end()));

    EXPECT_EQ(ToRef(a.Union(b)), ref_union);
    EXPECT_EQ(ToRef(a.Intersect(b)), ref_inter);
    EXPECT_EQ(ToRef(a.Difference(b)), ref_diff);
    EXPECT_EQ(ToRef(a.SymmetricDifference(b)), ref_sym);
    EXPECT_EQ(a.IsSubsetOf(b),
              std::includes(rb.begin(), rb.end(), ra.begin(), ra.end()));
    EXPECT_EQ(a.Union(b).size(), ref_union.size());

    // Contains / WithTuple / WithoutTuple agree with the reference on every
    // row of the union.
    for (const auto& row : ref_union) {
      TupleView t(row.data(), arity);
      EXPECT_EQ(a.Contains(t), ra.count(row) > 0);
      RefSet with = ra;
      with.insert(row);
      EXPECT_EQ(ToRef(a.WithTuple(t)), with);
      RefSet without = ra;
      without.erase(row);
      EXPECT_EQ(ToRef(a.WithoutTuple(t)), without);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatSetOpsPropertyTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace kbt
