/// \file
/// The relation storage contract: every non-empty relation owns exactly one
/// heap block of a 16-byte header (reference count, cached hash) plus
/// rows × arity values, with no spare capacity, and empty and nullary
/// relations own none. This binary replaces the global operator new and
/// delete with versions that prefix each block with its requested size and
/// count live blocks, so each producer's result can be checked for its exact
/// block size and for leaving no other block behind. Contents are checked
/// against testutil's std::set reference.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "rel/overlay.h"
#include "store/wal.h"
#include "testutil.h"

namespace {

// The size prefix keeps every returned pointer 16-byte aligned.
constexpr size_t kPrefix = 16;
std::atomic<int64_t> live_blocks{0};

void* AllocateCounted(size_t size) {
  void* p = std::malloc(size + kPrefix);
  if (p == nullptr) throw std::bad_alloc();
  *static_cast<size_t*>(p) = size;
  live_blocks.fetch_add(1, std::memory_order_relaxed);
  return static_cast<char*>(p) + kPrefix;
}

void FreeCounted(void* p) noexcept {
  if (p == nullptr) return;
  live_blocks.fetch_sub(1, std::memory_order_relaxed);
  std::free(static_cast<char*>(p) - kPrefix);
}

}  // namespace

// Every plain, array, sized and nothrow variant is replaced, so none of the
// runtime's own versions (a sanitizer's included) frees a counted block.
void* operator new(size_t size) { return AllocateCounted(size); }
void* operator new[](size_t size) { return AllocateCounted(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  try {
    return AllocateCounted(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { FreeCounted(p); }
void operator delete[](void* p) noexcept { FreeCounted(p); }
void operator delete(void* p, size_t) noexcept { FreeCounted(p); }
void operator delete[](void* p, size_t) noexcept { FreeCounted(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  FreeCounted(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  FreeCounted(p);
}

namespace kbt {
namespace {

using testutil::FromRef;
using testutil::RandomRef;
using testutil::RefSet;
using testutil::ToRef;

/// The block header: the reference count and the cached hash.
constexpr size_t kHeader = 16;

int64_t LiveBlocks() { return live_blocks.load(std::memory_order_relaxed); }

/// The size requested for the block at `p` (a pointer operator new returned).
size_t RequestedBytes(const void* p) {
  return *reinterpret_cast<const size_t*>(static_cast<const char*>(p) -
                                          kPrefix);
}

/// `r` stores its values in one block of exactly the header plus its values,
/// or holds no block when it stores no values.
void ExpectExactBlock(const Relation& r) {
  if (r.empty() || r.arity() == 0) {
    EXPECT_EQ(r.StorageId(), nullptr) << r.ToString();
    return;
  }
  ASSERT_NE(r.StorageId(), nullptr);
  EXPECT_EQ(RequestedBytes(r.StorageId()),
            kHeader + r.size() * r.arity() * sizeof(Value))
      << r.ToString();
  EXPECT_EQ(r.HeapBytes(), RequestedBytes(r.StorageId()));
}

/// Runs `produce` and checks that its result holds `want`'s rows in an exact
/// block, and that the call left exactly that block behind: one new block,
/// or none when the result has no block or shares one of `operands`'.
template <typename Produce>
void ExpectProduces(const RefSet& want, std::vector<const Relation*> operands,
                    Produce produce) {
  const int64_t before = LiveBlocks();
  Relation r = produce();
  const int64_t added = LiveBlocks() - before;
  bool shared = false;
  for (const Relation* operand : operands) {
    shared = shared || (r.StorageId() != nullptr &&
                        r.StorageId() == operand->StorageId());
  }
  EXPECT_EQ(added, r.StorageId() != nullptr && !shared ? 1 : 0)
      << r.ToString();
  ExpectExactBlock(r);
  EXPECT_EQ(ToRef(r), want);
}

/// Rows over the interned names "s0", "s1", ... with ids in name order.
Value V(int i) { return Name("s" + std::to_string(i)); }

TEST(RelationStorageTest, EmptyAndNullaryRelationsHoldNoBlock) {
  for (int i = 0; i < 8; ++i) V(i);  // Pin symbol ids to name order.
  const int64_t before = LiveBlocks();
  Relation empty(3);
  Relation nullary = Relation(0).WithTuple(Tuple());
  EXPECT_EQ(LiveBlocks(), before);
  EXPECT_EQ(empty.StorageId(), nullptr);
  EXPECT_EQ(nullary.StorageId(), nullptr);
  EXPECT_EQ(nullary.size(), 1u);
  EXPECT_EQ(empty.HeapBytes(), 0u);
}

TEST(RelationStorageTest, BuilderSortedInputIsOneExactBlock) {
  RefSet want;
  for (int i = 0; i < 6; ++i) want.insert({V(i), V(i + 1)});
  // Reserved exactly: the builder's block becomes the relation's.
  ExpectProduces(want, {}, [&] {
    Relation::Builder b(2);
    b.Reserve(want.size());
    for (const auto& row : want) b.Append(TupleView(row.data(), 2));
    return b.Build();
  });
  // Over-reserved: the rows move to an exact block.
  ExpectProduces(want, {}, [&] {
    Relation::Builder b(2);
    b.Reserve(want.size() + 5);
    for (const auto& row : want) b.Append(TupleView(row.data(), 2));
    return b.Build();
  });
}

TEST(RelationStorageTest, BuilderUnsortedInputIsOneExactBlock) {
  RefSet want;
  ExpectProduces(want, {}, [] { return Relation::Builder(2).Build(); });
  for (int i = 0; i < 5; ++i) want.insert({V(i), V(7 - i)});
  ExpectProduces(want, {}, [&] {
    Relation::Builder b(2);
    for (auto it = want.rbegin(); it != want.rend(); ++it) {
      Value* row = b.AppendRow();
      row[0] = (*it)[0];
      row[1] = (*it)[1];
    }
    return b.Build();
  });
}

TEST(RelationStorageTest, BuilderDuplicateRowsAreOneExactBlock) {
  RefSet want = {{V(1)}, {V(3)}, {V(4)}};
  ExpectProduces(want, {}, [&] {
    Relation::Builder b(1);
    b.Reserve(7);
    for (int i : {3, 1, 4, 1, 3, 4, 1}) b.Append({V(i)});
    return b.Build();
  });
  // Sorted with an adjacent duplicate.
  ExpectProduces(want, {}, [&] {
    Relation::Builder b(1);
    for (int i : {1, 3, 3, 4}) b.Append({V(i)});
    return b.Build();
  });
  ExpectProduces({{}}, {}, [] {
    Relation::Builder b(0);
    for (int i = 0; i < 3; ++i) b.Append(TupleView());
    return b.Build();
  });
}

TEST(RelationStorageTest, BuilderGrownWithoutReserveIsOneExactBlock) {
  const Value extra = V(9);  // Interned before any count is taken.
  for (int rows : {1, 2, 3, 17, 100}) {
    RefSet want;
    for (int i = 0; i < rows; ++i) want.insert({V(i % 8), V(i / 8), V(i)});
    ExpectProduces(want, {}, [&] {
      Relation::Builder b(3);
      for (const auto& row : want) b.Append(TupleView(row.data(), 3));
      b.Append({extra, extra, extra});
      b.DropLastRow();
      return b.Build();
    });
  }
}

TEST(RelationStorageTest, SetOperationsEndInOneExactBlock) {
  std::mt19937_64 rng(20261019);
  for (size_t arity : {size_t{0}, size_t{1}, size_t{2}, size_t{3}}) {
    RefSet some = RandomRef(arity, 10, &rng);
    RefSet other = RandomRef(arity, 10, &rng);
    // Operand pairs: empty on either side, one block twice, disjoint, and
    // overlapping (including subsets, whose results equal an operand).
    RefSet left_half, right_half;
    for (const auto& row : some) {
      (left_half.size() <= right_half.size() ? left_half : right_half)
          .insert(row);
    }
    RefSet subset(some.begin(), std::next(some.begin(), some.size() / 2));
    Relation empty(arity);
    Relation a = FromRef(arity, some);
    Relation b = FromRef(arity, other);
    Relation shared = a;
    Relation l = FromRef(arity, left_half);
    Relation r = FromRef(arity, right_half);
    Relation sub = FromRef(arity, subset);
    std::vector<std::pair<const Relation*, const Relation*>> pairs = {
        {&empty, &a}, {&a, &empty}, {&empty, &empty}, {&a, &shared},
        {&l, &r},     {&a, &b},     {&b, &a},         {&a, &sub},
        {&sub, &a}};
    for (auto [x, y] : pairs) {
      SCOPED_TRACE(x->ToString() + " vs " + y->ToString());
      const RefSet rx = ToRef(*x), ry = ToRef(*y);
      RefSet want_union, want_inter, want_diff, want_sym;
      std::set_union(rx.begin(), rx.end(), ry.begin(), ry.end(),
                     std::inserter(want_union, want_union.end()));
      std::set_intersection(rx.begin(), rx.end(), ry.begin(), ry.end(),
                            std::inserter(want_inter, want_inter.end()));
      std::set_difference(rx.begin(), rx.end(), ry.begin(), ry.end(),
                          std::inserter(want_diff, want_diff.end()));
      std::set_symmetric_difference(rx.begin(), rx.end(), ry.begin(), ry.end(),
                                    std::inserter(want_sym, want_sym.end()));
      ExpectProduces(want_union, {x, y}, [&] { return x->Union(*y); });
      ExpectProduces(want_inter, {x, y}, [&] { return x->Intersect(*y); });
      ExpectProduces(want_diff, {x, y}, [&] { return x->Difference(*y); });
      ExpectProduces(want_sym, {x, y},
                     [&] { return x->SymmetricDifference(*y); });
    }
    // WithTuple and WithoutTuple on every row of the union, present or not.
    RefSet all = some;
    all.insert(other.begin(), other.end());
    for (const auto& row : all) {
      TupleView t(row.data(), arity);
      RefSet with = some, without = some;
      with.insert(row);
      without.erase(row);
      ExpectProduces(with, {&a}, [&] { return a.WithTuple(t); });
      ExpectProduces(without, {&a}, [&] { return a.WithoutTuple(t); });
    }
  }
}

// Results past the merge's stack buffer (256 values) are merged into a heap
// block sized for the largest possible result: adopted when the result fills
// it, else copied to an exact block.
TEST(RelationStorageTest, LargeSetOperationsEndInOneExactBlock) {
  RefSet evens, threes;
  for (int i = 0; i < 400; i += 2) evens.insert({V(i), V(i % 7)});
  for (int i = 0; i < 400; i += 3) threes.insert({V(i), V(i % 7)});
  RefSet odds;
  for (int i = 1; i < 400; i += 2) odds.insert({V(i), V(i % 7)});
  const Relation a = FromRef(2, evens);
  const Relation b = FromRef(2, threes);
  const Relation c = FromRef(2, odds);
  for (auto [x, y] :
       {std::pair{&a, &b}, std::pair{&a, &c}, std::pair{&c, &b}}) {
    const RefSet rx = ToRef(*x), ry = ToRef(*y);
    RefSet want_union, want_inter, want_diff, want_sym;
    std::set_union(rx.begin(), rx.end(), ry.begin(), ry.end(),
                   std::inserter(want_union, want_union.end()));
    std::set_intersection(rx.begin(), rx.end(), ry.begin(), ry.end(),
                          std::inserter(want_inter, want_inter.end()));
    std::set_difference(rx.begin(), rx.end(), ry.begin(), ry.end(),
                        std::inserter(want_diff, want_diff.end()));
    std::set_symmetric_difference(rx.begin(), rx.end(), ry.begin(), ry.end(),
                                  std::inserter(want_sym, want_sym.end()));
    ExpectProduces(want_union, {x, y}, [&] { return x->Union(*y); });
    ExpectProduces(want_inter, {x, y}, [&] { return x->Intersect(*y); });
    ExpectProduces(want_diff, {x, y}, [&] { return x->Difference(*y); });
    ExpectProduces(want_sym, {x, y},
                   [&] { return x->SymmetricDifference(*y); });
  }
}

TEST(RelationStorageTest, ApplyDeltaIsOneExactBlock) {
  Relation base = FromRef(2, {{V(0), V(1)}, {V(1), V(2)}, {V(2), V(3)},
                              {V(3), V(4)}});
  Relation adds = FromRef(2, {{V(0), V(0)}, {V(2), V(5)}, {V(7), V(7)}});
  Relation dels = FromRef(2, {{V(1), V(2)}, {V(3), V(4)}});
  Relation none(2);
  const RefSet rb = ToRef(base), ra = ToRef(adds), rd = ToRef(dels);
  for (auto [add, del] : {std::pair{&adds, &dels}, std::pair{&adds, &none},
                          std::pair{&none, &dels}, std::pair{&none, &none}}) {
    RefSet want = rb;
    if (add == &adds) want.insert(ra.begin(), ra.end());
    if (del == &dels) {
      for (const auto& row : rd) want.erase(row);
    }
    ExpectProduces(want, {&base, add, del},
                   [&] { return ApplyDelta(base, *add, *del); });
  }
}

/// Every relation `kb` holds, base and overlays, is in an exact block, and
/// each delta holds its world's rows outside the base (adds) and the base's
/// rows outside its world (dels).
void ExpectExactKnowledgebase(const Knowledgebase& kb) {
  const Database& base = *kb.base();
  for (const Relation& r : base.relations()) ExpectExactBlock(r);
  for (size_t w = 0; w < kb.size(); ++w) {
    const Database world = kb.World(w);
    for (const RelationDelta& d : kb.overlays()[w].deltas()) {
      ExpectExactBlock(d.adds);
      ExpectExactBlock(d.dels);
      const RefSet rb = ToRef(base.relation_at(d.pos));
      const RefSet rw = ToRef(world.relation_at(d.pos));
      RefSet adds, dels;
      std::set_difference(rw.begin(), rw.end(), rb.begin(), rb.end(),
                          std::inserter(adds, adds.end()));
      std::set_difference(rb.begin(), rb.end(), rw.begin(), rw.end(),
                          std::inserter(dels, dels.end()));
      EXPECT_EQ(ToRef(d.adds), adds);
      EXPECT_EQ(ToRef(d.dels), dels);
    }
  }
}

TEST(RelationStorageTest, FromDiffKeepsNoSpareCapacity) {
  Schema schema = *Schema::Of({{"R", 2}, {"S", 1}, {"Z", 0}});
  Database base = *Database::Create(
      schema, {FromRef(2, {{V(0), V(1)}, {V(1), V(2)}, {V(2), V(3)},
                           {V(3), V(4)}}),
               FromRef(1, {{V(0)}, {V(1)}, {V(2)}}), Relation(0)});
  // Each difference is much smaller than its left operand.
  Database world = *Database::Create(
      schema, {FromRef(2, {{V(2), V(3)}, {V(3), V(4)}, {V(5), V(5)}}),
               FromRef(1, {{V(0)}, {V(1)}, {V(2)}, {V(6)}}),
               Relation(0).WithTuple(Tuple())});
  WorldOverlay overlay = WorldOverlay::FromDiff(base, world);
  ASSERT_EQ(overlay.deltas().size(), 3u);
  for (const RelationDelta& d : overlay.deltas()) {
    ExpectExactBlock(d.adds);
    ExpectExactBlock(d.dels);
  }
  EXPECT_EQ(ToRef(overlay.deltas()[0].adds), (RefSet{{V(5), V(5)}}));
  EXPECT_EQ(ToRef(overlay.deltas()[0].dels),
            (RefSet{{V(0), V(1)}, {V(1), V(2)}}));
  EXPECT_EQ(ToRef(overlay.deltas()[1].adds), (RefSet{{V(6)}}));
  EXPECT_TRUE(overlay.deltas()[1].dels.empty());
  EXPECT_EQ(overlay.ApplyTo(base), world);
}

TEST(RelationStorageTest, FromDatabasesHoldsOnlyExactBlocks) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 20; ++round) {
    std::vector<Database> dbs;
    for (int i = 0; i < 4; ++i) dbs.push_back(testutil::RandomDatabase(&rng));
    StatusOr<Knowledgebase> kb = Knowledgebase::FromDatabases(dbs);
    ASSERT_TRUE(kb.ok()) << kb.status().ToString();
    ExpectExactKnowledgebase(*kb);
    for (const Database& db : dbs) {
      bool found = false;
      for (size_t w = 0; w < kb->size(); ++w) {
        found = found || kb->World(w) == db;
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(RelationStorageTest, ParseTupleDeltaIsOneExactBlock) {
  Schema schema = *Schema::Of({{"R", 2}, {"Z", 0}});
  const std::string payload = store::EncodeTupleDelta(
      "R", 2, {{"s3", "s1"}, {"s0", "s2"}, {"s3", "s1"}, {"s1", "s1"}});
  const RefSet want = {{V(3), V(1)}, {V(0), V(2)}, {V(1), V(1)}};
  ExpectProduces(want, {}, [&] {
    store::PayloadNames names;
    return std::move(*store::ParseTupleDelta(payload, schema, &names)).rows;
  });
  const std::string sorted =
      store::EncodeTupleDelta("R", 2,
                              {{"s0", "s2"}, {"s1", "s1"}, {"s3", "s1"}});
  ExpectProduces(want, {}, [&] {
    store::PayloadNames names;
    return std::move(*store::ParseTupleDelta(sorted, schema, &names)).rows;
  });
  const std::string nullary = store::EncodeTupleDelta("Z", 0, {{}});
  ExpectProduces({{}}, {}, [&] {
    store::PayloadNames names;
    return std::move(*store::ParseTupleDelta(nullary, schema, &names)).rows;
  });
}

// Four threads copy, assign, move and drop handles to shared relations and
// derive new ones from them, and call Hash() on blocks whose hash nobody has
// cached yet, so the reference counts and the hash slot are written from
// several threads at once. Every block is freed once the handles are gone.
TEST(RelationStorageTest, ConcurrentHandlesFreeEveryBlock) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  std::mt19937_64 rng(11);
  std::vector<RefSet> contents;  // Interns every name before the baseline.
  for (int i = 0; i < 6; ++i) {
    contents.push_back(RandomRef(2, 8, &rng));
    contents.back().insert({V(i), V(i)});
  }
  const int64_t baseline = LiveBlocks();
  {
    std::vector<Relation> shared;
    std::vector<size_t> hashes;
    for (const RefSet& rows : contents) {
      shared.push_back(FromRef(2, rows));
      hashes.push_back(FromRef(2, rows).Hash());  // A block of its own.
    }
    std::atomic<int> wrong{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        std::vector<Relation> held(3, Relation(2));
        for (int i = 0; i < kRounds; ++i) {
          const size_t k = static_cast<size_t>(i + t) % shared.size();
          Relation copy = shared[k];
          held[i % 3] = copy;
          Relation moved = std::move(copy);
          held[(i + 1) % 3] = std::move(moved);
          const Relation& next = shared[(k + 1) % shared.size()];
          held[(i + 2) % 3] = held[i % 3].Union(next);
          if (held[i % 3].Hash() != hashes[k]) wrong.fetch_add(1);
          if (shared[k].WithoutTuple(shared[k].front()).size() + 1 !=
              shared[k].size()) {
            wrong.fetch_add(1);
          }
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(wrong.load(), 0);
    for (size_t k = 0; k < shared.size(); ++k) {
      EXPECT_EQ(shared[k].Hash(), hashes[k]);
    }
  }
  EXPECT_EQ(LiveBlocks(), baseline);
}

}  // namespace
}  // namespace kbt
