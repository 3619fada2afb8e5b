#include "rel/relation.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <memory>
#include <new>
#include <numeric>

#include "base/hash.h"

namespace kbt {

namespace {

/// True when the flat buffer of `rows` rows of width `arity` is already strictly
/// row-sorted (sorted with no duplicates).
bool IsStrictlySorted(const Value* data, size_t rows, size_t arity) {
  for (size_t r = 1; r < rows; ++r) {
    if (CompareValues(data + (r - 1) * arity, data + r * arity, arity) >= 0) {
      return false;
    }
  }
  return true;
}

/// Walks the row-sorted, duplicate-free flat arrays [a, ae) and [b, be) in
/// step and passes each run of kept rows to emit(first_row, row_count), in
/// row order: rows only in a when `left_only`, only in b when `right_only`,
/// in both when `both`.
template <typename Emit>
void MergeRows(const Value* a, const Value* ae, const Value* b, const Value* be,
               size_t arity, bool left_only, bool right_only, bool both,
               Emit emit) {
  while (a != ae && b != be) {
    int c = CompareValues(a, b, arity);
    if (c < 0) {
      if (left_only) emit(a, 1);
      a += arity;
    } else if (c > 0) {
      if (right_only) emit(b, 1);
      b += arity;
    } else {
      if (both) emit(a, 1);
      a += arity;
      b += arity;
    }
  }
  if (left_only && a != ae) emit(a, static_cast<size_t>(ae - a) / arity);
  if (right_only && b != be) emit(b, static_cast<size_t>(be - b) / arity);
}

}  // namespace

Relation::Block* Relation::Allocate(size_t values) {
  assert(values > 0 && "only non-empty relations hold a block");
  return new (::operator new(BlockBytes(values))) Block{{1}, {0}};
}

void Relation::Free(Block* block) { ::operator delete(block); }

Relation::Relation(Block* block, size_t arity, size_t rows)
    : block_(block),
      arity_(static_cast<uint32_t>(arity)),
      rows_(static_cast<uint32_t>(rows)) {
  // Row counts are 32-bit: 2^32 rows of even arity 1 would need 16 GiB of
  // values, far past any workload here (limit is debug-asserted, not checked
  // in release builds).
  assert(rows < UINT32_MAX && arity < UINT32_MAX && "relation too large");
  assert((block != nullptr) == (rows * arity > 0));
}

void Relation::Builder::Reallocate(size_t capacity) {
  Block* block = Allocate(capacity * arity_);
  if (rows_ > 0) std::copy_n(block_->values(), rows_ * arity_, block->values());
  Free(block_);
  block_ = block;
  capacity_ = capacity;
}

void Relation::Builder::Reserve(size_t rows) {
  if (arity_ > 0 && rows_ + rows > capacity_) Reallocate(rows_ + rows);
}

void Relation::Builder::Append(TupleView t) {
  assert(t.arity() == arity_ && "tuple arity mismatch");
  if (arity_ == 0) {
    ++rows_;
    return;
  }
  std::copy_n(t.data(), arity_, AppendRow());
}

Value* Relation::Builder::AppendRow() {
  assert(arity_ > 0 && "AppendRow requires positive arity");
  if (rows_ == capacity_) Reallocate(std::max<size_t>(1, 2 * capacity_));
  return block_->values() + rows_++ * arity_;
}

void Relation::Builder::DropLastRow() {
  assert(rows_ > 0);
  --rows_;
}

Relation Relation::Builder::Build() {
  Relation out(arity_);
  if (arity_ == 0) {
    out = Nullary(rows_ > 0);
  } else if (rows_ > 0) {
    const Value* d = block_->values();
    if (!IsStrictlySorted(d, rows_, arity_)) {
      // Sort row ids, dropping duplicates, then copy rows out in order.
      assert(rows_ < UINT32_MAX && "relation exceeds 2^32 rows");
      std::vector<uint32_t> order(rows_);
      std::iota(order.begin(), order.end(), 0u);
      const size_t arity = arity_;
      auto row = [&](uint32_t r) { return d + size_t{r} * arity; };
      std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
        return CompareValues(row(x), row(y), arity) < 0;
      });
      auto same = [&](uint32_t x, uint32_t y) {
        return CompareValues(row(x), row(y), arity) == 0;
      };
      order.erase(std::unique(order.begin(), order.end(), same), order.end());
      Block* exact = Allocate(order.size() * arity);
      Value* to = exact->values();
      for (uint32_t r : order) to = std::copy_n(row(r), arity, to);
      out = Relation(exact, arity, order.size());
    } else if (rows_ == capacity_) {
      out = Relation(std::exchange(block_, nullptr), arity_, rows_);
    } else {
      Block* exact = Allocate(rows_ * arity_);
      std::copy_n(d, rows_ * arity_, exact->values());
      out = Relation(exact, arity_, rows_);
    }
  }
  Free(std::exchange(block_, nullptr));
  rows_ = 0;
  capacity_ = 0;
  return out;
}

Relation::Relation(size_t arity, const std::vector<Tuple>& tuples)
    : Relation(arity) {
  Builder b(arity);
  b.Reserve(tuples.size());
  for (const Tuple& t : tuples) b.Append(t);
  *this = b.Build();
}

size_t Relation::LowerBoundRow(TupleView t) const {
  const Value* d = data();
  size_t lo = 0, hi = rows_;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (CompareValues(d + mid * arity_, t.data(), arity_) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool Relation::Contains(TupleView t) const {
  assert(t.arity() == arity_);
  if (arity_ == 0) return rows_ > 0;
  size_t r = LowerBoundRow(t);
  return r < rows_ && CompareValues(data() + r * arity_, t.data(), arity_) == 0;
}

Relation Relation::WithTuple(TupleView t) const {
  assert(t.arity() == arity_);
  if (arity_ == 0) return rows_ > 0 ? *this : Nullary(true);
  size_t r = LowerBoundRow(t);
  if (r < rows_ && CompareValues(data() + r * arity_, t.data(), arity_) == 0) {
    return *this;
  }
  const std::span<const Value> rows = flat();
  const size_t split = r * arity_;
  Block* block = Allocate(rows.size() + arity_);
  Value* out = std::copy_n(rows.data(), split, block->values());
  out = std::copy_n(t.data(), arity_, out);
  std::copy(rows.begin() + split, rows.end(), out);
  return Relation(block, arity_, rows_ + 1);
}

Relation Relation::WithoutTuple(TupleView t) const {
  assert(t.arity() == arity_);
  if (arity_ == 0) return rows_ > 0 ? Relation(0) : *this;
  size_t r = LowerBoundRow(t);
  if (r == rows_ || CompareValues(data() + r * arity_, t.data(), arity_) != 0) {
    return *this;
  }
  if (rows_ == 1) return Relation(arity_);
  const std::span<const Value> rows = flat();
  const size_t split = r * arity_;
  Block* block = Allocate(rows.size() - arity_);
  Value* out = std::copy_n(rows.data(), split, block->values());
  std::copy(rows.begin() + split + arity_, rows.end(), out);
  return Relation(block, arity_, rows_ - 1);
}

Relation Relation::Merge(const Relation& other, Keep keep) const {
  const size_t arity = arity_;
  const Value* a = data();
  const Value* ae = a + flat().size();
  const Value* b = other.data();
  const Value* be = b + other.flat().size();
  // One merge into room for the most rows the result can have: a stack
  // buffer when that fits, else a heap block of that size.
  const size_t bound =
      keep.left_only ? rows_ + (keep.right_only ? other.rows_ : 0)
                     : std::min(rows_, other.rows_);
  Value local[256] = {};
  std::unique_ptr<Block, void (*)(Block*)> heap(nullptr, &Free);
  Value* merged = local;
  if (bound * arity > std::size(local)) {
    heap.reset(Allocate(bound * arity));
    merged = heap->values();
  }
  Value* out = merged;
  MergeRows(a, ae, b, be, arity, keep.left_only, keep.right_only, keep.both,
            [&](const Value* first, size_t n) {
              out = std::copy_n(first, n * arity, out);
            });
  const size_t rows = static_cast<size_t>(out - merged) / arity;
  // A result as large as an operand is that operand when it lies within it
  // (keeps no row only the other side has) or contains it (keeps all of its
  // rows): share the operand's block.
  if (rows == rows_ && (!keep.right_only || (keep.left_only && keep.both))) {
    return *this;
  }
  if (rows == other.rows_ &&
      (!keep.left_only || (keep.right_only && keep.both))) {
    return other;
  }
  if (rows == 0) return Relation(arity);
  if (heap != nullptr && rows == bound) {
    return Relation(heap.release(), arity, rows);
  }
  Block* exact = Allocate(rows * arity);
  std::copy_n(merged, rows * arity, exact->values());
  return Relation(exact, arity, rows);
}

Relation Relation::Union(const Relation& other) const {
  assert(arity_ == other.arity_);
  if (arity_ == 0) return Nullary(rows_ > 0 || other.rows_ > 0);
  if (other.rows_ == 0 || block_ == other.block_) return *this;
  if (rows_ == 0) return other;
  return Merge(other, {.left_only = true, .right_only = true, .both = true});
}

Relation Relation::Intersect(const Relation& other) const {
  assert(arity_ == other.arity_);
  if (arity_ == 0) return Nullary(rows_ > 0 && other.rows_ > 0);
  if (rows_ == 0 || block_ == other.block_) return *this;
  if (other.rows_ == 0) return other;
  return Merge(other, {.left_only = false, .right_only = false, .both = true});
}

Relation Relation::Difference(const Relation& other) const {
  assert(arity_ == other.arity_);
  if (arity_ == 0) return Nullary(rows_ > 0 && other.rows_ == 0);
  if (rows_ == 0 || other.rows_ == 0) return *this;
  if (block_ == other.block_) return Relation(arity_);
  return Merge(other, {.left_only = true, .right_only = false, .both = false});
}

Relation Relation::SymmetricDifference(const Relation& other) const {
  assert(arity_ == other.arity_);
  if (arity_ == 0) return Nullary((rows_ > 0) != (other.rows_ > 0));
  if (other.rows_ == 0) return *this;
  if (rows_ == 0) return other;
  if (block_ == other.block_) return Relation(arity_);
  return Merge(other, {.left_only = true, .right_only = true, .both = false});
}

bool Relation::IsSubsetOf(const Relation& other) const {
  assert(arity_ == other.arity_);
  if (arity_ == 0) return rows_ == 0 || other.rows_ > 0;
  if (rows_ > other.rows_) return false;
  if (block_ == other.block_) return true;  // Equal (or both empty).
  const Value* a = data();
  const Value* ae = a + flat().size();
  const Value* b = other.data();
  const Value* be = b + other.flat().size();
  while (a != ae) {
    if (b == be) return false;
    int c = CompareValues(a, b, arity_);
    if (c < 0) return false;  // Row of `this` missing from `other`.
    b += arity_;
    if (c == 0) a += arity_;
  }
  return true;
}

void Relation::CollectValues(std::vector<Value>* out) const {
  const std::span<const Value> values = flat();
  out->insert(out->end(), values.begin(), values.end());
}

std::string Relation::ToString() const {
  std::string out = "{";
  for (size_t r = 0; r < rows_; ++r) {
    if (r > 0) out += ", ";
    out += (*this)[r].ToString();
  }
  out += "}";
  return out;
}

bool operator<(const Relation& a, const Relation& b) {
  if (a.arity_ != b.arity_) return a.arity_ < b.arity_;
  if (a.block_ != nullptr && a.block_ == b.block_) return false;  // Equal.
  std::span<const Value> da = a.flat();
  std::span<const Value> db = b.flat();
  auto cmp = std::lexicographical_compare_three_way(da.begin(), da.end(),
                                                    db.begin(), db.end());
  if (cmp != 0) return cmp < 0;
  return a.rows_ < b.rows_;  // Distinguishes arity-0 relations.
}

size_t Relation::Hash() const {
  if (block_ != nullptr) {
    size_t cached = block_->hash.load(std::memory_order_relaxed);
    if (cached != 0) return cached;
  }
  size_t seed = HashCombine(0x51ab5f1e, arity_);
  for (size_t r = 0; r < rows_; ++r) seed = HashCombine(seed, (*this)[r].Hash());
  if (block_ != nullptr) {
    if (seed == 0) seed = 1;  // Reserve 0 for "not yet computed".
    block_->hash.store(seed, std::memory_order_relaxed);
  }
  return seed;
}

}  // namespace kbt
