/// \file
/// Tests for AtomIndex: dense ids in first-interned order, lookups of absent
/// atoms, atoms of any arity and relation, and agreement with a std::map
/// reference over many random atoms, with every atom view re-read each time
/// the table grows.

#include "logic/ground_atom.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <utility>
#include <vector>

namespace kbt {
namespace {

Value V(int i) { return Name("ga" + std::to_string(i)); }

TEST(AtomIndexTest, IdsAreDenseInFirstInternedOrder) {
  const Symbol r = Name("R"), s = Name("S");
  AtomIndex index;
  const Tuple ab{V(0), V(1)}, ba{V(1), V(0)}, a{V(0)};
  EXPECT_EQ(index.IdOf(r, ab), 0);
  EXPECT_EQ(index.IdOf(r, ba), 1);
  EXPECT_EQ(index.IdOf(s, a), 2);
  EXPECT_EQ(index.IdOf(r, ab), 0);  // Already interned.
  EXPECT_EQ(index.IdOf(s, a), 2);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.AtomOf(0), (GroundAtom{r, ab}));
  EXPECT_EQ(index.AtomOf(1), (GroundAtom{r, ba}));
  EXPECT_EQ(index.AtomOf(2), (GroundAtom{s, a}));
  EXPECT_EQ(index.AtomOf(1).ToString(), "R(ga1, ga0)");
}

TEST(AtomIndexTest, AbsentAtomsAreNotFound) {
  const Symbol r = Name("R");
  AtomIndex index;
  EXPECT_EQ(index.Find(r, Tuple{V(0)}), -1);
  EXPECT_EQ(index.Find(r, Tuple()), -1);
  EXPECT_EQ(index.size(), 0u);
  // Past several growths of the table, and after a shrink.
  for (int i = 0; i < 100; ++i) index.IdOf(r, Tuple{V(i)});
  for (int i = 100; i < 200; ++i) {
    EXPECT_EQ(index.Find(r, Tuple{V(i)}), -1) << i;
    EXPECT_EQ(index.Find(Name("S"), Tuple{V(i - 100)}), -1) << i;
  }
  EXPECT_EQ(index.Find(r, Tuple{V(0), V(0)}), -1);
  index.ShrinkToFit();
  EXPECT_EQ(index.Find(r, Tuple{V(150)}), -1);
  EXPECT_EQ(index.Find(r, Tuple{V(50)}), 50);
  EXPECT_EQ(index.size(), 100u);
}

TEST(AtomIndexTest, ArityAndRelationTellAtomsApart) {
  const Symbol r = Name("R"), s = Name("S");
  AtomIndex index;
  const Tuple empty, one{V(0)}, three{V(0), V(1), V(2)}, two{V(0), V(1)};
  const int r0 = index.IdOf(r, empty);
  const int s0 = index.IdOf(s, empty);
  const int r1 = index.IdOf(r, one);
  const int s1 = index.IdOf(s, one);
  const int r3 = index.IdOf(r, three);
  const int s3 = index.IdOf(s, three);
  const int r2 = index.IdOf(r, two);  // A prefix of `three`.
  EXPECT_EQ((std::vector<int>{r0, s0, r1, s1, r3, s3, r2}),
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(index.Find(r, empty), r0);
  EXPECT_EQ(index.Find(s, empty), s0);
  EXPECT_EQ(index.Find(s, three), s3);
  EXPECT_EQ(index.Find(r, two), r2);
  EXPECT_EQ(index.AtomOf(s0).tuple.arity(), 0u);
  EXPECT_EQ(index.AtomOf(s0).ToString(), "S()");
  EXPECT_EQ(index.AtomOf(r3).tuple, TupleView(three));
  EXPECT_EQ(index.AtomOf(r2).tuple, TupleView(two));
  EXPECT_EQ(index.AtomOf(s1), (GroundAtom{s, one}));
}

TEST(AtomIndexTest, RandomAtomsMatchAMapReference) {
  std::mt19937_64 rng(29);
  const std::vector<Symbol> relations = {Name("R"), Name("S"), Name("T")};
  std::map<std::pair<Symbol, std::vector<Value>>, int> reference;
  std::vector<std::pair<Symbol, std::vector<Value>>> by_id;
  AtomIndex index;
  size_t held = index.HeapBytes();
  for (int step = 0; step < 10'000; ++step) {
    const Symbol relation = relations[rng() % relations.size()];
    std::vector<Value> values(rng() % 4);
    for (Value& v : values) v = V(static_cast<int>(rng() % 12));
    const TupleView view(values.data(), values.size());
    auto [it, inserted] = reference.emplace(
        std::make_pair(relation, values), static_cast<int>(by_id.size()));
    if (inserted) by_id.emplace_back(relation, values);
    EXPECT_EQ(index.Find(relation, view), inserted ? -1 : it->second);
    ASSERT_EQ(index.IdOf(relation, view), it->second);
    ASSERT_EQ(index.size(), by_id.size());
    if (index.HeapBytes() == held) continue;
    // The arrays moved: every atom reads back from its new place.
    held = index.HeapBytes();
    for (size_t id = 0; id < by_id.size(); ++id) {
      const GroundAtom atom = index.AtomOf(static_cast<int>(id));
      ASSERT_EQ(atom.relation, by_id[id].first) << id;
      ASSERT_EQ(atom.tuple, TupleView(by_id[id].second.data(),
                                      by_id[id].second.size()))
          << id;
    }
  }
  index.ShrinkToFit();
  for (const auto& [atom, id] : reference) {
    const TupleView view(atom.second.data(), atom.second.size());
    EXPECT_EQ(index.Find(atom.first, view), id);
    EXPECT_EQ(index.AtomOf(id), (GroundAtom{atom.first, view}));
  }
}

}  // namespace
}  // namespace kbt
