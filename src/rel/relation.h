#ifndef KBT_REL_RELATION_H_
#define KBT_REL_RELATION_H_

/// \file
/// Finite relations: sorted duplicate-free sets of same-arity tuples.
///
/// A relation r_i in the paper is a finite subset of A^α(i). The rows live in
/// one flat array with an arity stride — row r occupies [r*arity, (r+1)*arity)
/// — kept row-sorted and duplicate-free. Iteration yields non-owning
/// TupleViews into that array, so the set operations the paper leans on —
/// union, intersection, difference and the symmetric difference Δ of
/// Definition 2.1 — are cache-friendly stride-aware merges with no per-tuple
/// heap traffic. Bulk construction goes through Relation::Builder, which
/// appends rows into one buffer and sorts + dedups once at Build time.
///
/// A non-empty relation is one heap block: a reference count, the cached
/// hash, then exactly size() * arity() values, with no spare capacity. The
/// Relation itself is a 16-byte handle (block pointer, arity, row count), so
/// copying a Relation — and hence a Database, and hence materializing one
/// world of an overlay-structured Knowledgebase — is a reference-count bump,
/// not a data copy. Empty and nullary relations hold no block. Every producer
/// (Builder::Build, the set operations, WithTuple/WithoutTuple) ends in one
/// exact-size block or shares an operand's. Sharing is observable only
/// through StorageId(), which set operations and comparisons use as an O(1)
/// equality fast path (τ's result constructor,
/// Knowledgebase::FromWorldOutputs, checks its outputs by it alone), and
/// through the block's cached hash (computed once per distinct block, then
/// reused by every sharing copy and by Database::Hash).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rel/tuple.h"

namespace kbt {

/// An immutable-after-construction finite relation of fixed arity.
class Relation {
  struct Block;

 public:
  /// Accumulates rows into one growable block; sorts and deduplicates once on
  /// Build. A build whose rows arrive sorted into exactly the reserved
  /// capacity hands that block to the relation without copying it.
  class Builder {
   public:
    explicit Builder(size_t arity) : arity_(arity) {}
    Builder(Builder&& other) noexcept
        : block_(std::exchange(other.block_, nullptr)),
          arity_(other.arity_),
          rows_(std::exchange(other.rows_, 0)),
          capacity_(std::exchange(other.capacity_, 0)) {}
    Builder& operator=(Builder&& other) noexcept {
      std::swap(block_, other.block_);
      std::swap(arity_, other.arity_);
      std::swap(rows_, other.rows_);
      std::swap(capacity_, other.capacity_);
      return *this;
    }
    ~Builder() { Free(block_); }

    /// Pre-allocates space for `rows` additional rows.
    void Reserve(size_t rows);

    /// Appends one row; `t.arity()` must equal the builder arity.
    void Append(TupleView t);
    /// Appends one row from an explicit value list.
    void Append(std::initializer_list<Value> values) {
      Append(TupleView(values.begin(), values.size()));
    }

    /// Appends an uninitialized row and returns the pointer to fill with
    /// exactly `arity` values before the next Builder call. Arity must be > 0.
    Value* AppendRow();

    /// Drops the most recently appended row (e.g. a candidate that failed a
    /// post-fill check). Must follow an append.
    void DropLastRow();

    size_t arity() const { return arity_; }
    /// Rows appended so far (before dedup).
    size_t rows() const { return rows_; }

    /// Finalizes: sorts rows, removes duplicates, and returns the relation in
    /// one block of exactly its rows. The builder is left empty.
    Relation Build();

   private:
    /// Moves the rows into a block of `capacity` rows (>= rows_).
    void Reallocate(size_t capacity);

    Block* block_ = nullptr;  // capacity_ rows; the first rows_ are appended.
    size_t arity_;
    size_t rows_ = 0;
    size_t capacity_ = 0;
  };

  /// Forward iterator over rows, yielding TupleViews into the flat buffer.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TupleView;
    using difference_type = std::ptrdiff_t;
    using pointer = const TupleView*;
    using reference = TupleView;

    const_iterator() = default;
    const_iterator(const Value* base, size_t arity, size_t row)
        : base_(base), arity_(arity), row_(row) {}

    TupleView operator*() const {
      return TupleView(base_ + row_ * arity_, arity_);
    }
    const_iterator& operator++() {
      ++row_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator out = *this;
      ++row_;
      return out;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.row_ == b.row_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.row_ != b.row_;
    }

   private:
    const Value* base_ = nullptr;
    size_t arity_ = 0;
    size_t row_ = 0;
  };

  /// Empty relation of the given arity.
  explicit Relation(size_t arity = 0)
      : arity_(static_cast<uint32_t>(arity)) {}

  /// Relation from tuples; deduplicates and sorts. All tuples must have `arity`
  /// components (asserted).
  Relation(size_t arity, const std::vector<Tuple>& tuples);

  /// Copies share the block (a reference-count bump); a moved-from relation
  /// is empty, of the same arity.
  Relation(const Relation& other) noexcept
      : block_(other.block_), arity_(other.arity_), rows_(other.rows_) {
    if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Relation(Relation&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)),
        arity_(other.arity_),
        rows_(std::exchange(other.rows_, 0)) {}
  Relation& operator=(const Relation& other) noexcept {
    if (other.block_ != nullptr) {
      other.block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    Unref(block_);
    block_ = other.block_;
    arity_ = other.arity_;
    rows_ = other.rows_;
    return *this;
  }
  Relation& operator=(Relation&& other) noexcept {
    std::swap(block_, other.block_);
    std::swap(arity_, other.arity_);
    std::swap(rows_, other.rows_);
    return *this;
  }
  ~Relation() { Unref(block_); }

  /// Number of components of every tuple.
  size_t arity() const { return arity_; }
  /// Number of tuples.
  size_t size() const { return rows_; }
  /// True iff the relation holds no tuples.
  bool empty() const { return rows_ == 0; }
  /// The flat row-major storage (size() * arity() values, row-sorted).
  std::span<const Value> flat() const {
    return std::span<const Value>(data(), size_t{rows_} * arity_);
  }

  /// View of row `r` (< size()); rows are in ascending lexicographic order.
  TupleView operator[](size_t r) const {
    return TupleView(data() + r * arity_, arity_);
  }
  /// View of the first row; the relation must be non-empty.
  TupleView front() const { return (*this)[0]; }
  /// View of the last row; the relation must be non-empty.
  TupleView back() const { return (*this)[rows_ - 1]; }

  const_iterator begin() const { return const_iterator(data(), arity_, 0); }
  const_iterator end() const { return const_iterator(data(), arity_, rows_); }

  /// Membership test (binary search over rows, O(log n) row comparisons).
  bool Contains(TupleView t) const;

  /// Row index of the first row not less than `t` (the partition point the
  /// overlay world-ordering uses to count rows past a pivot without merging).
  size_t LowerBoundRow(TupleView t) const;

  /// Identity of the shared block: two relations with equal non-null
  /// StorageId hold the same rows (same arity included — blocks are never
  /// shared across arities). Null for relations without a block (empty, or
  /// nullary which stores no values). Copy-on-write diffing uses this to skip
  /// untouched relations in O(1).
  const void* StorageId() const { return block_; }

  /// Bytes of the heap block holding this relation's rows, header included
  /// (not divided by the block's sharing count — callers deduplicate via
  /// StorageId); 0 without a block.
  size_t HeapBytes() const {
    return block_ != nullptr ? BlockBytes(size_t{rows_} * arity_) : 0;
  }

  /// Returns this relation with `t` inserted (no-op if present).
  Relation WithTuple(TupleView t) const;
  /// Returns this relation with `t` removed (no-op if absent).
  Relation WithoutTuple(TupleView t) const;

  /// Set union; arities must agree.
  Relation Union(const Relation& other) const;
  /// Set intersection; arities must agree.
  Relation Intersect(const Relation& other) const;
  /// Set difference this \ other; arities must agree.
  Relation Difference(const Relation& other) const;
  /// Symmetric difference (A \ B) ∪ (B \ A); the Δ of Definition 2.1.
  Relation SymmetricDifference(const Relation& other) const;

  /// True iff every tuple of this relation is in `other`.
  bool IsSubsetOf(const Relation& other) const;

  /// All values appearing in any tuple, appended to `out` (unsorted, may repeat).
  void CollectValues(std::vector<Value>* out) const;

  /// Renders as "{(a, b), (c, d)}".
  std::string ToString() const;

  friend bool operator==(const Relation& a, const Relation& b) {
    return a.arity_ == b.arity_ && a.rows_ == b.rows_ &&
           (a.block_ == b.block_ || std::ranges::equal(a.flat(), b.flat()));
  }
  friend bool operator!=(const Relation& a, const Relation& b) { return !(a == b); }
  /// Arbitrary total order (arity, then lexicographic rows); used for canonical
  /// knowledgebase ordering.
  friend bool operator<(const Relation& a, const Relation& b);

  size_t Hash() const;

 private:
  /// The header of a relation's heap block; exactly size() * arity() values
  /// follow it. The hash slot is written at most to one value (0 means "not
  /// yet computed"; a computed hash of 0 is remapped to 1), so relaxed
  /// atomics suffice: racing writers store the same value.
  struct Block {
    std::atomic<size_t> refs;
    std::atomic<size_t> hash;

    Value* values() { return reinterpret_cast<Value*>(this + 1); }
  };

  static constexpr size_t BlockBytes(size_t values) {
    return sizeof(Block) + values * sizeof(Value);
  }
  /// A block for `values` values, held once, hash not yet computed.
  static Block* Allocate(size_t values);
  static void Free(Block* block);
  static void Unref(Block* block) {
    if (block != nullptr &&
        block->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Free(block);
    }
  }

  /// Adopts `block` (null iff the relation stores no values) holding `rows`
  /// sorted, deduplicated rows.
  Relation(Block* block, size_t arity, size_t rows);
  /// The nullary relation: {()} if `holds`, else {}.
  static Relation Nullary(bool holds) {
    return Relation(nullptr, 0, holds ? 1 : 0);
  }

  /// A set operation, as the classes of rows it keeps: those only in this
  /// relation, those only in the other, and those in both.
  struct Keep {
    bool left_only;
    bool right_only;
    bool both;
  };
  /// `keep` of two non-empty positive-arity relations by one merge, ending in
  /// one exact block (or an operand's block when the result equals that
  /// operand).
  Relation Merge(const Relation& other, Keep keep) const;

  const Value* data() const {
    return block_ != nullptr ? block_->values() : nullptr;
  }

  Block* block_ = nullptr;  // Row-major, row-sorted, unique.
  uint32_t arity_;
  uint32_t rows_ = 0;
};

static_assert(sizeof(Relation) == 16, "a Relation is a 16-byte handle");

}  // namespace kbt

#endif  // KBT_REL_RELATION_H_
