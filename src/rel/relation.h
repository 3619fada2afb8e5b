#ifndef KBT_REL_RELATION_H_
#define KBT_REL_RELATION_H_

/// \file
/// Finite relations: sorted duplicate-free sets of same-arity tuples.
///
/// A relation r_i in the paper is a finite subset of A^α(i). The representation is
/// a single flat `std::vector<Value>` with an arity stride — row r occupies
/// [r*arity, (r+1)*arity) — kept row-sorted and duplicate-free. Iteration yields
/// non-owning TupleViews into that buffer, so the set operations the paper leans
/// on — union, intersection, difference and the symmetric difference Δ of
/// Definition 2.1 — are cache-friendly stride-aware merges with no per-tuple heap
/// traffic. Bulk construction goes through Relation::Builder, which appends rows
/// into one buffer and sorts + dedups once at Build time.
///
/// The flat buffer is held behind a shared immutable Storage block, so copying a
/// Relation — and hence a Database, and hence materializing one world of an
/// overlay-structured Knowledgebase — is a reference-count bump, not a data
/// copy. Sharing is observable only through StorageId(), which set operations
/// and comparisons use as an O(1) equality fast path (τ's result constructor,
/// Knowledgebase::FromWorldOutputs, checks its outputs by it alone), and
/// through the Storage block's cached hash (computed once per distinct buffer,
/// then reused by every sharing copy and by Database::Hash).

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "rel/tuple.h"

namespace kbt {

/// An immutable-after-construction finite relation of fixed arity.
class Relation {
 public:
  /// Accumulates rows into a flat buffer; sorts and deduplicates once on Build.
  class Builder {
   public:
    explicit Builder(size_t arity) : arity_(arity) {}

    /// Pre-allocates space for `rows` additional rows.
    void Reserve(size_t rows) { data_.reserve(data_.size() + rows * arity_); }

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

    /// Finalizes: sorts rows, removes duplicates, and returns the relation.
    /// The builder is left empty.
    Relation Build();

   private:
    size_t arity_;
    size_t rows_ = 0;
    std::vector<Value> data_;
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
  explicit Relation(size_t arity = 0) : arity_(arity) {}

  /// Relation from tuples; deduplicates and sorts. All tuples must have `arity`
  /// components (asserted).
  Relation(size_t arity, const std::vector<Tuple>& tuples);

  /// Number of components of every tuple.
  size_t arity() const { return arity_; }
  /// Number of tuples.
  size_t size() const { return rows_; }
  /// True iff the relation holds no tuples.
  bool empty() const { return rows_ == 0; }
  /// The flat row-major storage (size() * arity() values, row-sorted).
  const std::vector<Value>& flat() const { return data(); }

  /// View of row `r` (< size()); rows are in ascending lexicographic order.
  TupleView operator[](size_t r) const {
    return TupleView(data().data() + r * arity_, arity_);
  }
  /// View of the first row; the relation must be non-empty.
  TupleView front() const { return (*this)[0]; }
  /// View of the last row; the relation must be non-empty.
  TupleView back() const { return (*this)[rows_ - 1]; }

  const_iterator begin() const {
    return const_iterator(data().data(), arity_, 0);
  }
  const_iterator end() const {
    return const_iterator(data().data(), arity_, rows_);
  }

  /// Membership test (binary search over rows, O(log n) row comparisons).
  bool Contains(TupleView t) const;

  /// Row index of the first row not less than `t` (the partition point the
  /// overlay world-ordering uses to count rows past a pivot without merging).
  size_t LowerBoundRow(TupleView t) const;

  /// Identity of the shared flat buffer: two relations with equal non-null
  /// StorageId hold the same rows (same arity included — buffers are never
  /// shared across arities). Null for relations without a buffer (empty, or
  /// nullary which stores no values). Copy-on-write diffing uses this to skip
  /// untouched relations in O(1).
  const void* StorageId() const { return storage_.get(); }

  /// Bytes of flat tuple storage held by this relation's buffer (not divided
  /// by the buffer's sharing count — callers deduplicate via StorageId).
  size_t HeapBytes() const {
    return storage_ != nullptr ? storage_->data.size() * sizeof(Value) : 0;
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
           (a.storage_ == b.storage_ || a.data() == b.data());
  }
  friend bool operator!=(const Relation& a, const Relation& b) { return !(a == b); }
  /// Arbitrary total order (arity, then lexicographic rows); used for canonical
  /// knowledgebase ordering.
  friend bool operator<(const Relation& a, const Relation& b);

  size_t Hash() const;

 private:
  /// The shared immutable flat buffer plus its lazily cached hash. The hash
  /// slot is written at most to one value (0 means "not yet computed"; a
  /// computed hash of 0 is remapped to 1), so relaxed atomics suffice: racing
  /// writers store the same value.
  struct Storage {
    explicit Storage(std::vector<Value> d) : data(std::move(d)) {}
    const std::vector<Value> data;
    mutable std::atomic<size_t> hash{0};
  };

  /// Adopts an already sorted, deduplicated flat buffer.
  Relation(size_t arity, size_t rows, std::vector<Value> data)
      : storage_(data.empty() ? nullptr
                              : std::make_shared<const Storage>(std::move(data))),
        arity_(arity),
        rows_(rows) {}

  /// The flat buffer (a shared static empty vector when storage is null).
  const std::vector<Value>& data() const {
    static const std::vector<Value> kEmpty;
    return storage_ != nullptr ? storage_->data : kEmpty;
  }

  std::shared_ptr<const Storage> storage_;  // Row-major, row-sorted, unique.
  size_t arity_;
  size_t rows_ = 0;
};

}  // namespace kbt

#endif  // KBT_REL_RELATION_H_
