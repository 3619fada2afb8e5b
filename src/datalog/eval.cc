#include "datalog/eval.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/cancel.h"
#include "datalog/analysis.h"

namespace kbt::datalog {

using kbt::CompareValues;
using kbt::Database;
using kbt::Relation;
using kbt::RelationDecl;
using kbt::Schema;
using kbt::Status;
using kbt::StatusOr;
using kbt::TupleView;
using kbt::Value;

namespace {

/// Hash-index over one relation: power-of-two bucket heads chained through a
/// per-row next array, keyed by the hash of the values at a fixed set of key
/// positions. Probes verify candidate rows against the key values, so bucket
/// collisions only cost a few comparisons. Build reuses the flat head/next
/// buffers, so re-indexing a fresh relation (the semi-naive delta every round)
/// allocates nothing once the buffers have grown to size.
struct HashIndex {
  static constexpr uint32_t kEnd = 0xFFFFFFFFu;

  std::vector<size_t> positions;
  std::vector<uint32_t> heads;  ///< Bucket heads (power-of-two size).
  std::vector<uint32_t> next;   ///< next[r] chains rows within a bucket.

  static size_t HashKey(const Value* values, size_t count) {
    return kbt::TupleViewHash{}(TupleView(values, count));
  }

  void Build(const Relation& rel, const std::vector<size_t>& key_positions) {
    // Row ids are 32-bit (debug-asserted; see Relation::Builder::Build).
    assert(rel.size() < UINT32_MAX && "relation exceeds 32-bit row ids");
    positions.assign(key_positions.begin(), key_positions.end());
    size_t capacity = 4;
    while (capacity < rel.size() * 2) capacity *= 2;
    heads.assign(capacity, kEnd);
    next.resize(rel.size());
    size_t mask = capacity - 1;
    key_scratch_.resize(positions.size());
    Value* key = key_scratch_.data();
    for (size_t r = 0; r < rel.size(); ++r) {
      TupleView row = rel[r];
      for (size_t i = 0; i < positions.size(); ++i) key[i] = row[positions[i]];
      size_t slot = HashKey(key, positions.size()) & mask;
      next[r] = heads[slot];
      heads[slot] = static_cast<uint32_t>(r);
    }
  }

  /// First row id of the bucket for `key`, or kEnd. Follow with next[].
  uint32_t Head(const Value* key) const {
    return heads[HashKey(key, positions.size()) & (heads.size() - 1)];
  }

 private:
  std::vector<Value> key_scratch_;  ///< Build-time key buffer.
};

/// A relation plus a version stamp so cached indexes notice updates.
struct StoredRel {
  Relation rel;
  uint64_t version = 0;
};

/// Caches hash indexes per (relation identity, key-position mask), invalidated
/// by version stamps. Masks cover argument positions 0..63; a literal with a
/// bound position ≥ 64 is marked non-indexable at compile time and handled by
/// the scan path, never by this cache. Stored relations only — semi-naive
/// deltas use each runner's own scratch index (they change every round, so
/// caching them only churned this map).
class IndexCache {
 public:
  const HashIndex& For(Symbol pred, const Relation& rel, uint64_t version,
                       uint64_t mask, const std::vector<size_t>& positions) {
    Entry& e = entries_[Key{pred, mask}];
    if (e.version != version || !e.valid) {
      e.index.Build(rel, positions);
      e.version = version;
      e.valid = true;
    }
    return e.index;
  }

 private:
  struct Key {
    Symbol pred;
    uint64_t mask;
    friend bool operator==(const Key& a, const Key& b) {
      return a.pred == b.pred && a.mask == b.mask;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return kbt::HashCombine(k.pred, k.mask);
    }
  };
  struct Entry {
    HashIndex index;
    uint64_t version = 0;
    bool valid = false;
  };
  std::unordered_map<Key, Entry, KeyHash> entries_;
};

/// A term reference resolved at compile time: either a constant value or a
/// positional variable slot.
struct SlotRef {
  bool is_const;
  Value value;    // is_const
  uint16_t slot;  // !is_const
};

/// One compiled body literal. Argument positions are split into:
///  * key positions — constants or variables bound by earlier literals; these
///    form the probe key of the hash index (no per-row re-check needed);
///  * binds — first occurrences of variables, written from the matching row;
///  * checks — repeated occurrences within the same literal, verified after the
///    binds of that row are written.
struct CompiledLiteral {
  Symbol pred = 0;
  size_t arity = 0;
  std::vector<size_t> key_positions;
  std::vector<SlotRef> key_refs;  // Parallel to key_positions.
  uint64_t key_mask = 0;
  /// False when a key position does not fit the 64-bit mask: such literals use
  /// the scan path so distinct position sets can never alias one cached index.
  bool indexable = true;
  std::vector<std::pair<size_t, uint16_t>> binds;   // position → slot to write.
  std::vector<std::pair<size_t, uint16_t>> checks;  // position → slot to equal.
};

/// A fully-bound literal reference (negatives): every argument resolvable once
/// the positive join completes.
struct CompiledAtomRef {
  Symbol pred = 0;
  std::vector<SlotRef> args;
};

struct CompiledConstraint {
  bool negated;
  SlotRef lhs, rhs;
};

/// A rule compiled to positional variable slots: no name lookups at join time.
struct CompiledRule {
  const Rule* rule = nullptr;
  size_t num_slots = 0;
  std::vector<CompiledLiteral> positives;
  std::vector<CompiledAtomRef> negatives;
  std::vector<CompiledConstraint> constraints;
  Symbol head_pred = 0;
  size_t head_arity = 0;
  std::vector<SlotRef> head;
};

StatusOr<uint16_t> SlotOf(std::unordered_map<Symbol, uint16_t>* slots,
                          Symbol var, bool* fresh) {
  auto [it, inserted] = slots->try_emplace(
      var, static_cast<uint16_t>(slots->size()));
  if (inserted && slots->size() > UINT16_MAX) {
    return Status::InvalidArgument("rule has too many variables");
  }
  *fresh = inserted;
  return it->second;
}

StatusOr<SlotRef> ResolveRef(const std::unordered_map<Symbol, uint16_t>& slots,
                             const Term& t) {
  if (t.is_constant()) return SlotRef{true, t.symbol, 0};
  auto it = slots.find(t.symbol);
  if (it == slots.end()) {
    return Status::InvalidArgument("unsafe rule: unbound variable " +
                                   kbt::NameOf(t.symbol));
  }
  return SlotRef{false, 0, it->second};
}

StatusOr<CompiledRule> Compile(const Rule& rule,
                               const std::unordered_map<Symbol, size_t>& arities) {
  CompiledRule out;
  out.rule = &rule;
  std::unordered_map<Symbol, uint16_t> slots;
  for (const Literal& l : rule.body) {
    if (l.negated) continue;
    auto ait = arities.find(l.atom.predicate);
    if (ait == arities.end()) {
      return Status::Internal("datalog eval: relation missing for " +
                              kbt::NameOf(l.atom.predicate));
    }
    if (ait->second != l.atom.args.size()) {
      return Status::InvalidArgument("arity mismatch for " +
                                     kbt::NameOf(l.atom.predicate));
    }
    CompiledLiteral cl;
    cl.pred = l.atom.predicate;
    cl.arity = l.atom.args.size();
    for (size_t pos = 0; pos < l.atom.args.size(); ++pos) {
      const Term& t = l.atom.args[pos];
      if (t.is_constant()) {
        cl.key_positions.push_back(pos);
        cl.key_refs.push_back(SlotRef{true, t.symbol, 0});
        if (pos < 64) {
          cl.key_mask |= uint64_t{1} << pos;
        } else {
          cl.indexable = false;
        }
        continue;
      }
      bool fresh = false;
      KBT_ASSIGN_OR_RETURN(uint16_t slot, SlotOf(&slots, t.symbol, &fresh));
      if (fresh) {
        cl.binds.emplace_back(pos, slot);
      } else if (std::any_of(cl.binds.begin(), cl.binds.end(),
                             [&](const auto& b) { return b.second == slot; })) {
        // Bound earlier in this same literal: verify after the row is read.
        cl.checks.emplace_back(pos, slot);
      } else {
        cl.key_positions.push_back(pos);
        cl.key_refs.push_back(SlotRef{false, 0, slot});
        if (pos < 64) {
          cl.key_mask |= uint64_t{1} << pos;
        } else {
          cl.indexable = false;
        }
      }
    }
    out.positives.push_back(std::move(cl));
  }
  for (const Literal& l : rule.body) {
    if (!l.negated) continue;
    auto ait = arities.find(l.atom.predicate);
    if (ait == arities.end()) {
      return Status::Internal("datalog eval: relation missing for " +
                              kbt::NameOf(l.atom.predicate));
    }
    if (ait->second != l.atom.args.size()) {
      return Status::InvalidArgument("arity mismatch for " +
                                     kbt::NameOf(l.atom.predicate));
    }
    CompiledAtomRef ref;
    ref.pred = l.atom.predicate;
    ref.args.reserve(l.atom.args.size());
    for (const Term& t : l.atom.args) {
      KBT_ASSIGN_OR_RETURN(SlotRef r, ResolveRef(slots, t));
      ref.args.push_back(r);
    }
    out.negatives.push_back(std::move(ref));
  }
  for (const Constraint& c : rule.constraints) {
    CompiledConstraint cc;
    cc.negated = c.negated;
    KBT_ASSIGN_OR_RETURN(cc.lhs, ResolveRef(slots, c.lhs));
    KBT_ASSIGN_OR_RETURN(cc.rhs, ResolveRef(slots, c.rhs));
    out.constraints.push_back(cc);
  }
  out.head_pred = rule.head.predicate;
  out.head_arity = rule.head.args.size();
  out.head.reserve(rule.head.args.size());
  for (const Term& t : rule.head.args) {
    KBT_ASSIGN_OR_RETURN(SlotRef r, ResolveRef(slots, t));
    out.head.push_back(r);
  }
  out.num_slots = slots.size();
  return out;
}

/// Executes one compiled rule against the store. Scratch buffers are owned by
/// the runner and reused across rounds: the join loop performs no per-tuple
/// heap allocation — rows are TupleViews into the relations' flat buffers and
/// derived heads are appended to a flat Relation::Builder.
class RuleRunner {
 public:
  RuleRunner(CompiledRule compiled,
             const std::unordered_map<Symbol, StoredRel>* store,
             IndexCache* indexes, EvalStats* stats)
      : compiled_(std::move(compiled)),
        indexes_(indexes),
        stats_(stats),
        slots_(compiled_.num_slots),
        out_(compiled_.head_arity) {
    size_t max_arity = compiled_.head_arity;
    key_bufs_.reserve(compiled_.positives.size());
    // Store entries are created up front and never erased, so StoredRel
    // addresses are stable for the whole evaluation (node-based map): resolve
    // each literal's slot once here instead of per join step.
    for (const CompiledLiteral& l : compiled_.positives) {
      max_arity = std::max(max_arity, l.arity);
      key_bufs_.emplace_back(l.key_positions.size());
      pos_rels_.push_back(&store->at(l.pred));
    }
    for (const CompiledAtomRef& n : compiled_.negatives) {
      max_arity = std::max(max_arity, n.args.size());
      neg_rels_.push_back(&store->at(n.pred));
    }
    scratch_.resize(max_arity);
  }

  Symbol head_pred() const { return compiled_.head_pred; }
  const Rule& rule() const { return *compiled_.rule; }

  /// Runs the join. When `delta` is set, the positive literal at
  /// `delta_position` is instantiated from `delta` instead of the stored
  /// relation (semi-naive differentiation). Derived tuples not already in
  /// `current_head` are collected; Take() returns them deduplicated.
  Status Run(const Relation* delta, size_t delta_position,
             const Relation* current_head) {
    delta_ = delta;
    delta_position_ = delta_position;
    current_head_ = current_head;
    delta_index_valid_ = false;  // New delta contents: rebuild on first probe.
    if (stats_ != nullptr) ++stats_->rule_evaluations;
    return Recurse(0);
  }

  /// Returns the derived head tuples accumulated since the last Take.
  Relation Take() { return out_.Build(); }

 private:
  const Relation& RelationAt(size_t i) const {
    if (delta_ != nullptr && i == delta_position_) return *delta_;
    return pos_rels_[i]->rel;
  }

  Status Recurse(size_t i) {
    if (i == compiled_.positives.size()) return Finish();
    const CompiledLiteral& lit = compiled_.positives[i];
    const Relation& rel = RelationAt(i);

    if (lit.key_positions.empty() || rel.size() <= 1 || !lit.indexable) {
      // No bound arguments, a trivially small relation, or key positions
      // beyond the index mask width: scan.
      for (size_t r = 0; r < rel.size(); ++r) {
        KBT_RETURN_IF_ERROR(TryRow(i, lit, rel[r], /*check_keys=*/true));
      }
      return Status::OK();
    }

    // Compute the probe key from constants and already-bound slots. Each
    // literal owns its buffer: the key must survive the recursive calls made
    // while iterating this literal's matches.
    Value* key = key_bufs_[i].data();
    for (size_t k = 0; k < lit.key_refs.size(); ++k) {
      const SlotRef& ref = lit.key_refs[k];
      key[k] = ref.is_const ? ref.value : slots_[ref.slot];
    }

    if (lit.key_positions.size() == lit.arity && lit.binds.empty() &&
        lit.checks.empty()) {
      // Fully bound literal: a membership test. Key positions are argument
      // positions 0..arity-1 in order, so the key is the row itself.
      if (rel.Contains(TupleView(key, lit.arity))) {
        return Recurse(i + 1);
      }
      return Status::OK();
    }

    // Probe the hash index on the bound positions.
    const HashIndex& index = IndexFor(i, lit, rel);
    for (uint32_t r = index.Head(key); r != HashIndex::kEnd; r = index.next[r]) {
      TupleView row = rel[r];
      bool match = true;
      for (size_t k = 0; k < lit.key_positions.size(); ++k) {
        if (row[lit.key_positions[k]] != key[k]) {
          match = false;
          break;
        }
      }
      if (!match) continue;  // Bucket hash collision.
      KBT_RETURN_IF_ERROR(TryRow(i, lit, row, /*check_keys=*/false));
    }
    return Status::OK();
  }

  const HashIndex& IndexFor(size_t i, const CompiledLiteral& lit,
                            const Relation& rel) {
    if (delta_ != nullptr && i == delta_position_) {
      // The delta relation changes every semi-naive round; indexing it through
      // the shared cache churned one entry per (rule, round). Each runner
      // instead owns a scratch index whose flat buffers are reused across
      // rounds — Build allocates nothing once they have grown.
      if (!delta_index_valid_) {
        delta_index_.Build(rel, lit.key_positions);
        delta_index_valid_ = true;
      }
      return delta_index_;
    }
    return indexes_->For(lit.pred, rel, pos_rels_[i]->version, lit.key_mask,
                         lit.key_positions);
  }

  Status TryRow(size_t i, const CompiledLiteral& lit, TupleView row,
                bool check_keys) {
    if (check_keys) {
      for (size_t k = 0; k < lit.key_positions.size(); ++k) {
        const SlotRef& ref = lit.key_refs[k];
        Value expected = ref.is_const ? ref.value : slots_[ref.slot];
        if (row[lit.key_positions[k]] != expected) return Status::OK();
      }
    }
    for (const auto& [pos, slot] : lit.binds) slots_[slot] = row[pos];
    for (const auto& [pos, slot] : lit.checks) {
      if (row[pos] != slots_[slot]) return Status::OK();
    }
    return Recurse(i + 1);
  }

  Value Resolve(const SlotRef& ref) const {
    return ref.is_const ? ref.value : slots_[ref.slot];
  }

  Status Finish() {
    for (const CompiledConstraint& c : compiled_.constraints) {
      if ((Resolve(c.lhs) == Resolve(c.rhs)) == c.negated) return Status::OK();
    }
    for (size_t j = 0; j < compiled_.negatives.size(); ++j) {
      const CompiledAtomRef& n = compiled_.negatives[j];
      for (size_t k = 0; k < n.args.size(); ++k) {
        scratch_[k] = Resolve(n.args[k]);
      }
      if (neg_rels_[j]->rel.Contains(TupleView(scratch_.data(), n.args.size()))) {
        return Status::OK();
      }
    }
    if (compiled_.head_arity == 0) {
      if (current_head_ == nullptr || current_head_->empty()) {
        out_.Append(TupleView());
      }
      return Status::OK();
    }
    Value* row = out_.AppendRow();
    for (size_t k = 0; k < compiled_.head_arity; ++k) {
      row[k] = Resolve(compiled_.head[k]);
    }
    if (current_head_ != nullptr &&
        current_head_->Contains(TupleView(row, compiled_.head_arity))) {
      out_.DropLastRow();  // Already derived in an earlier round.
    }
    return Status::OK();
  }

 private:
  CompiledRule compiled_;
  IndexCache* indexes_;
  EvalStats* stats_;
  std::vector<const StoredRel*> pos_rels_;  // Parallel to compiled_.positives.
  std::vector<const StoredRel*> neg_rels_;  // Parallel to compiled_.negatives.
  std::vector<Value> slots_;
  std::vector<std::vector<Value>> key_bufs_;  // One probe-key buffer per literal.
  std::vector<Value> scratch_;  // Negative-literal membership buffer (Finish only).
  Relation::Builder out_;
  const Relation* delta_ = nullptr;
  size_t delta_position_ = 0;
  const Relation* current_head_ = nullptr;
  /// Per-rule scratch index over the current delta relation (see IndexFor).
  HashIndex delta_index_;
  bool delta_index_valid_ = false;
};

/// One predicate's facts in a masked evaluation: a flat tuple store, tuple →
/// id through an open-addressed table, each fact's world mask by id, and hash
/// indexes on bound positions. Facts are only appended and masks only gain
/// bits. No fact is appended while a join runs (derivations are ORed in
/// after it), so an index catches up with the facts appended since its last
/// use when a join first asks for it.
class MaskedTable {
 public:
  static constexpr uint32_t kEnd = 0xFFFFFFFFu;

  /// Facts chained by the hash of their values at `positions`.
  struct Index {
    uint64_t key_mask = 0;
    std::vector<size_t> positions;
    std::vector<uint32_t> heads;  ///< Bucket heads (power-of-two size).
    std::vector<uint32_t> next;   ///< next[id] chains facts within a bucket.
    uint32_t indexed = 0;         ///< Facts [0, indexed) are chained.

    uint32_t Head(const Value* key) const {
      return heads[HashIndex::HashKey(key, positions.size()) &
                   (heads.size() - 1)];
    }
  };

  explicit MaskedTable(size_t arity) : arity_(arity), ids_(16, kEnd) {}

  /// Makes room for `facts` facts in all.
  void Reserve(size_t facts) {
    values_.reserve(facts * arity_);
    masks_.reserve(facts);
    size_t slots = ids_.size();
    while (slots < 2 * facts) slots *= 2;
    if (slots != ids_.size()) Rehash(slots);
  }

  size_t arity() const { return arity_; }
  uint32_t size() const { return static_cast<uint32_t>(masks_.size()); }
  const Value* row(uint32_t id) const {
    return values_.data() + size_t{id} * arity_;
  }
  uint64_t mask(uint32_t id) const { return masks_[id]; }

  /// The id of the fact `t` (arity values), or kEnd.
  uint32_t Find(const Value* t) const { return ids_[SlotOf(t)]; }

  /// ORs `mask` into the fact `t`, appending it when new, and returns the
  /// bits this newly set. `t` must not point into this table.
  uint64_t Or(const Value* t, uint64_t mask, uint32_t* id) {
    const size_t at = SlotOf(t);
    if (ids_[at] != kEnd) {
      *id = ids_[at];
      const uint64_t fresh = mask & ~masks_[*id];
      masks_[*id] |= mask;
      return fresh;
    }
    *id = size();
    ids_[at] = *id;
    values_.insert(values_.end(), t, t + arity_);
    masks_.push_back(mask);
    if (2 * masks_.size() > ids_.size()) Rehash(2 * ids_.size());
    return mask;
  }

  /// The index over `positions` (whose bits `key_mask` sets), chaining every
  /// fact. References stay valid while other indexes are added.
  const Index& IndexOn(uint64_t key_mask, const std::vector<size_t>& positions) {
    Index* index = nullptr;
    for (const std::unique_ptr<Index>& i : indexes_) {
      if (i->key_mask == key_mask) index = i.get();
    }
    if (index == nullptr) {
      index = indexes_.emplace_back(std::make_unique<Index>()).get();
      index->key_mask = key_mask;
      index->positions = positions;
    }
    if (index->heads.empty() || 2 * masks_.size() > index->heads.size()) {
      size_t capacity = 16;
      while (capacity < 4 * masks_.size()) capacity *= 2;
      index->heads.assign(capacity, kEnd);
      index->indexed = 0;
    }
    index->next.resize(size());
    std::vector<Value>& key = key_scratch_;
    key.resize(positions.size());
    for (uint32_t f = index->indexed; f < size(); ++f) {
      for (size_t k = 0; k < positions.size(); ++k) key[k] = row(f)[positions[k]];
      const size_t slot = HashIndex::HashKey(key.data(), key.size()) &
                          (index->heads.size() - 1);
      index->next[f] = index->heads[slot];
      index->heads[slot] = f;
    }
    index->indexed = size();
    return *index;
  }

 private:
  /// The slot holding the fact `t`, or the empty slot where it would go.
  size_t SlotOf(const Value* t) const {
    size_t at = HashIndex::HashKey(t, arity_) & (ids_.size() - 1);
    while (ids_[at] != kEnd && CompareValues(row(ids_[at]), t, arity_) != 0) {
      at = (at + 1) & (ids_.size() - 1);
    }
    return at;
  }

  void Rehash(size_t slots) {
    ids_.assign(slots, kEnd);
    for (uint32_t f = 0; f < size(); ++f) ids_[SlotOf(row(f))] = f;
  }

  size_t arity_;
  std::vector<Value> values_;
  std::vector<uint64_t> masks_;
  std::vector<uint32_t> ids_;  ///< At most half full.
  std::vector<std::unique_ptr<Index>> indexes_;
  std::vector<Value> key_scratch_;
};

/// One predicate of a masked evaluation: its facts, the bits newly set in
/// them during the current round, and the previous round's delta as (fact
/// id, bits) pairs.
struct MaskedPredicate {
  explicit MaskedPredicate(size_t arity) : table(arity) {}

  void AddFresh(uint32_t id, uint64_t b) {
    if (id >= fresh.size()) fresh.resize(id + 1, 0);
    if (fresh[id] == 0) fresh_ids.push_back(id);
    fresh[id] |= b;
  }
  /// Ends a round: the round's fresh bits become the delta. True when there
  /// were any.
  bool TakeDelta() {
    delta.clear();
    for (uint32_t id : fresh_ids) {
      delta.emplace_back(id, fresh[id]);
      fresh[id] = 0;
    }
    fresh_ids.clear();
    return !delta.empty();
  }

  MaskedTable table;
  std::vector<uint64_t> fresh;      ///< By fact id.
  std::vector<uint32_t> fresh_ids;  ///< Facts whose fresh bits are non-zero.
  std::vector<std::pair<uint32_t, uint64_t>> delta;
};

/// One compiled positive rule joined over masked tables. A partial join
/// carries the AND of its premises' masks and is pruned when that reaches
/// 0; each derivation is collected with its mask and ORed into the head
/// table once the join is over.
class MaskedRuleRunner {
 public:
  MaskedRuleRunner(CompiledRule compiled,
                   std::unordered_map<Symbol, MaskedPredicate>* preds)
      : compiled_(std::move(compiled)),
        head_(&preds->at(compiled_.head_pred)),
        slots_(compiled_.num_slots) {
    // Predicates are created up front and never erased (node-based map), so
    // their addresses are stable for the whole evaluation.
    for (const CompiledLiteral& l : compiled_.positives) {
      MaskedPredicate& pred = preds->at(l.pred);
      if (tables_.empty()) first_delta_ = &pred.delta;
      tables_.push_back(&pred.table);
      key_bufs_.emplace_back(l.key_positions.size());
    }
  }

  /// True when the first positive literal's predicate has an empty delta.
  bool FirstDeltaEmpty() const { return first_delta_->empty(); }

  /// Joins the rule in the worlds of `worlds`. With `from_delta`, the first
  /// positive literal ranges over its predicate's delta, facts and bits,
  /// instead of its whole table (semi-naive differentiation). Then ORs each
  /// derivation into the head table, recording the bits it newly set.
  void Run(uint64_t worlds, bool from_delta, EvalStats* stats) {
    from_delta_ = from_delta;
    if (stats != nullptr) ++stats->rule_evaluations;
    Recurse(0, worlds);
    const size_t arity = compiled_.head_arity;
    for (size_t k = 0; k < out_masks_.size(); ++k) {
      uint32_t id = 0;
      const uint64_t bits =
          head_->table.Or(out_values_.data() + k * arity, out_masks_[k], &id);
      if (bits != 0) head_->AddFresh(id, bits);
    }
    out_values_.clear();
    out_masks_.clear();
  }

 private:
  Value Resolve(const SlotRef& ref) const {
    return ref.is_const ? ref.value : slots_[ref.slot];
  }

  void Recurse(size_t i, uint64_t m) {
    if (i == compiled_.positives.size()) return Finish(m);
    const CompiledLiteral& lit = compiled_.positives[i];
    MaskedTable& table = *tables_[i];
    if (i == 0 && from_delta_) {
      for (const auto& [id, bits] : *first_delta_) {
        if (const uint64_t mm = m & bits) TryRow(i, lit, table.row(id), mm, true);
      }
      return;
    }
    if (lit.key_positions.empty() || !lit.indexable) {
      for (uint32_t id = 0; id < table.size(); ++id) {
        if (const uint64_t mm = m & table.mask(id)) {
          TryRow(i, lit, table.row(id), mm, true);
        }
      }
      return;
    }
    // Each literal owns its key buffer: the key must survive the recursive
    // calls made while iterating this literal's matches.
    Value* key = key_bufs_[i].data();
    for (size_t k = 0; k < lit.key_refs.size(); ++k) {
      key[k] = Resolve(lit.key_refs[k]);
    }
    if (lit.key_positions.size() == lit.arity) {
      // Fully bound: the key is the fact itself.
      const uint32_t id = table.Find(key);
      if (id == MaskedTable::kEnd) return;
      if (const uint64_t mm = m & table.mask(id)) Recurse(i + 1, mm);
      return;
    }
    const MaskedTable::Index& index =
        table.IndexOn(lit.key_mask, lit.key_positions);
    for (uint32_t id = index.Head(key); id != MaskedTable::kEnd;
         id = index.next[id]) {
      const Value* row = table.row(id);
      bool match = true;
      for (size_t k = 0; k < lit.key_positions.size(); ++k) {
        if (row[lit.key_positions[k]] != key[k]) {
          match = false;
          break;
        }
      }
      if (!match) continue;  // Bucket hash collision.
      if (const uint64_t mm = m & table.mask(id)) TryRow(i, lit, row, mm, false);
    }
  }

  void TryRow(size_t i, const CompiledLiteral& lit, const Value* row,
              uint64_t m, bool check_keys) {
    if (check_keys) {
      for (size_t k = 0; k < lit.key_positions.size(); ++k) {
        if (row[lit.key_positions[k]] != Resolve(lit.key_refs[k])) return;
      }
    }
    for (const auto& [pos, slot] : lit.binds) slots_[slot] = row[pos];
    for (const auto& [pos, slot] : lit.checks) {
      if (row[pos] != slots_[slot]) return;
    }
    Recurse(i + 1, m);
  }

  void Finish(uint64_t m) {
    for (const CompiledConstraint& c : compiled_.constraints) {
      if ((Resolve(c.lhs) == Resolve(c.rhs)) == c.negated) return;
    }
    for (const SlotRef& ref : compiled_.head) out_values_.push_back(Resolve(ref));
    out_masks_.push_back(m);
  }

  CompiledRule compiled_;
  MaskedPredicate* head_;
  std::vector<MaskedTable*> tables_;  // Parallel to compiled_.positives.
  const std::vector<std::pair<uint32_t, uint64_t>>* first_delta_ = nullptr;
  std::vector<Value> slots_;
  std::vector<std::vector<Value>> key_bufs_;  // One probe key per literal.
  bool from_delta_ = false;
  /// The join's derivations: head_arity values and a mask each.
  std::vector<Value> out_values_;
  std::vector<uint64_t> out_masks_;
};

}  // namespace

StatusOr<Database> Evaluate(const Program& program, const Database& edb,
                            EvalStats* stats) {
  KBT_RETURN_IF_ERROR(CheckSafety(program));
  KBT_ASSIGN_OR_RETURN(Schema program_schema, ProgramSchema(program));
  KBT_ASSIGN_OR_RETURN(std::vector<std::vector<Symbol>> strata, Stratify(program));

  // Output schema: EDB relations first, then unseen IDB predicates.
  KBT_ASSIGN_OR_RETURN(Schema out_schema, edb.schema().Union(program_schema));

  // Working relation store with version stamps for index invalidation.
  std::unordered_map<Symbol, StoredRel> store;
  std::unordered_map<Symbol, size_t> arities;
  store.reserve(out_schema.size());
  for (const RelationDecl& d : out_schema.decls()) {
    std::optional<size_t> pos = edb.schema().PositionOf(d.symbol);
    store.emplace(d.symbol,
                  StoredRel{pos ? edb.relation_at(*pos) : Relation(d.arity), 0});
    arities.emplace(d.symbol, d.arity);
  }
  auto update_head = [&store](Symbol pred, const Relation& fresh) {
    StoredRel& s = store.at(pred);
    s.rel = s.rel.Union(fresh);
    ++s.version;
  };

  IndexCache indexes;

  for (size_t stratum = 0; stratum < strata.size(); ++stratum) {
    std::unordered_set<Symbol> stratum_preds(strata[stratum].begin(),
                                             strata[stratum].end());
    std::vector<RuleRunner> runners;
    for (const Rule& r : program.rules) {
      if (stratum_preds.count(r.head.predicate) == 0) continue;
      KBT_ASSIGN_OR_RETURN(CompiledRule compiled, Compile(r, arities));
      runners.emplace_back(std::move(compiled), &store, &indexes, stats);
    }
    if (runners.empty()) continue;

    // Round 0 evaluates every rule in full (this seeds facts and
    // captures contributions of lower strata); afterwards only rules with a
    // recursive positive literal re-fire, instantiated through the deltas.
    std::unordered_map<Symbol, Relation> delta;
    if (stats != nullptr) ++stats->rounds;
    for (RuleRunner& runner : runners) {
      const Relation& head = store.at(runner.head_pred()).rel;
      KBT_RETURN_IF_ERROR(runner.Run(nullptr, 0, &head));
      Relation fresh = runner.Take();
      if (!fresh.empty()) {
        if (stats != nullptr) stats->derived_tuples += fresh.size();
        update_head(runner.head_pred(), fresh);
        auto [it, inserted] = delta.emplace(runner.head_pred(), fresh);
        if (!inserted) it->second = it->second.Union(fresh);
      }
    }
    while (!delta.empty()) {
      if (stats != nullptr) ++stats->rounds;
      std::unordered_map<Symbol, Relation> next_delta;
      for (RuleRunner& runner : runners) {
        // One pass per recursive positive literal, fed by that literal's delta.
        size_t positive_index = 0;
        for (const Literal& l : runner.rule().body) {
          if (l.negated) continue;
          size_t this_index = positive_index++;
          auto dit = delta.find(l.atom.predicate);
          if (dit == delta.end() || stratum_preds.count(l.atom.predicate) == 0) {
            continue;
          }
          const Relation& head = store.at(runner.head_pred()).rel;
          KBT_RETURN_IF_ERROR(runner.Run(&dit->second, this_index, &head));
          Relation fresh = runner.Take();
          if (fresh.empty()) continue;
          if (stats != nullptr) stats->derived_tuples += fresh.size();
          update_head(runner.head_pred(), fresh);
          auto [it, inserted] = next_delta.emplace(runner.head_pred(), fresh);
          if (!inserted) it->second = it->second.Union(fresh);
        }
      }
      delta = std::move(next_delta);
    }
  }

  // Assemble the output database.
  std::vector<Relation> out_relations;
  out_relations.reserve(out_schema.size());
  for (const RelationDecl& d : out_schema.decls()) {
    out_relations.push_back(std::move(store.at(d.symbol).rel));
  }
  return Database::Create(std::move(out_schema), std::move(out_relations));
}

StatusOr<std::vector<MaskedHead>> EvaluateMasked(
    const Program& program, const std::unordered_map<Symbol, MaskedFacts>& edb,
    uint64_t worlds, const kbt::CancelToken* cancel, EvalStats* stats) {
  KBT_RETURN_IF_ERROR(CheckSafety(program));
  for (const Rule& r : program.rules) {
    for (const Literal& l : r.body) {
      if (l.negated) {
        return Status::Unsupported(
            "masked Datalog evaluation takes positive programs only");
      }
    }
  }
  KBT_ASSIGN_OR_RETURN(Schema schema, ProgramSchema(program));
  const std::vector<Symbol> heads = program.HeadPredicates();
  auto is_head = [&heads](Symbol p) {
    return std::find(heads.begin(), heads.end(), p) != heads.end();
  };

  std::unordered_map<Symbol, MaskedPredicate> preds;
  std::unordered_map<Symbol, size_t> arities;
  for (const RelationDecl& d : schema.decls()) {
    preds.emplace(d.symbol, MaskedPredicate(d.arity));
    arities.emplace(d.symbol, d.arity);
  }
  for (const auto& [pred, facts] : edb) {
    auto it = preds.find(pred);
    if (it == preds.end()) continue;  // Not read by the program.
    MaskedTable& table = it->second.table;
    if (is_head(pred)) {
      return Status::InvalidArgument("masked Datalog EDB holds head predicate " +
                                     kbt::NameOf(pred));
    }
    if (facts.arity != table.arity() ||
        facts.values.size() != facts.masks.size() * facts.arity) {
      return Status::InvalidArgument("arity mismatch for " + kbt::NameOf(pred));
    }
    table.Reserve(facts.masks.size());
    for (size_t k = 0; k < facts.masks.size(); ++k) {
      uint32_t id = 0;
      if (facts.masks[k] != 0) {
        table.Or(facts.values.data() + k * facts.arity, facts.masks[k], &id);
      }
    }
  }

  // Round 0 joins every rule in full. The delta rounds join, per positive
  // literal over a head predicate, the rule with that literal moved first,
  // so the join starts from the delta's few facts.
  // Compiled rules point into `moved`; a deque never moves its elements.
  std::deque<Rule> moved;
  std::vector<MaskedRuleRunner> full;
  std::vector<MaskedRuleRunner> deltas;
  for (const Rule& r : program.rules) {
    KBT_ASSIGN_OR_RETURN(CompiledRule compiled, Compile(r, arities));
    full.emplace_back(std::move(compiled), &preds);
    for (size_t j = 0; j < r.body.size(); ++j) {
      if (!is_head(r.body[j].atom.predicate)) continue;
      Rule& first = moved.emplace_back(r);
      std::rotate(first.body.begin(), first.body.begin() + j,
                  first.body.begin() + j + 1);
      KBT_ASSIGN_OR_RETURN(CompiledRule c, Compile(first, arities));
      deltas.emplace_back(std::move(c), &preds);
    }
  }

  std::vector<MaskedPredicate*> head_preds;
  for (Symbol h : heads) head_preds.push_back(&preds.at(h));
  size_t rounds = 0;
  bool more = true;
  for (bool first_round = true; more; first_round = false) {
    if (cancel != nullptr && cancel->Expired()) {
      return Status::DeadlineExceeded("μ cancelled between Datalog rounds");
    }
    ++rounds;
    for (MaskedRuleRunner& runner : first_round ? full : deltas) {
      if (!first_round && runner.FirstDeltaEmpty()) continue;
      runner.Run(worlds, !first_round, stats);
    }
    more = false;
    for (MaskedPredicate* head : head_preds) more |= head->TakeDelta();
  }

  std::vector<MaskedHead> out;
  size_t derived = 0;
  for (Symbol h : heads) {
    const MaskedTable& table = preds.at(h).table;
    const size_t arity = table.arity();
    std::vector<uint32_t> order(table.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return CompareValues(table.row(a), table.row(b), arity) < 0;
    });
    MaskedHead head;
    head.predicate = h;
    head.masks.reserve(order.size());
    Relation::Builder tuples(arity);
    tuples.Reserve(order.size());
    for (uint32_t id : order) {
      tuples.Append(TupleView(table.row(id), arity));
      head.masks.push_back(table.mask(id));
      derived += static_cast<size_t>(std::popcount(table.mask(id)));
    }
    head.tuples = tuples.Build();  // Distinct and sorted: adopted as is.
    out.push_back(std::move(head));
  }
  if (stats != nullptr) {
    stats->rounds += rounds;
    stats->derived_tuples += derived;
  }
  return out;
}

}  // namespace kbt::datalog
