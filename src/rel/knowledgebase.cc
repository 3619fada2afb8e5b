#include "rel/knowledgebase.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <set>

namespace kbt {

namespace {

/// Strict-weak-order adapter over CompareWorldsOnBase for binary_search.
struct OverlayLess {
  const Database* base;
  bool operator()(const WorldOverlay& a, const WorldOverlay& b) const {
    return CompareWorldsOnBase(*base, a, b) < 0;
  }
};

/// Sorts `overlays` into canonical order and drops duplicates. The sequence
/// splits into maximal strictly increasing runs — n − 1 adjacent comparisons;
/// one run is canonical already and is kept with no moves — and the runs are
/// merged pairwise, keeping one of two equal worlds: O(n log runs)
/// comparisons. Overlays are a unique representation relative to one base,
/// so equal worlds are equal overlays, and the merge moves indices, not
/// overlays, until one final gather.
void SortUnique(const Database& base, std::vector<WorldOverlay>* overlays) {
  std::vector<WorldOverlay>& v = *overlays;
  std::vector<uint32_t> bounds = {0};  // Where each run starts, then the end.
  for (size_t i = 1; i < v.size(); ++i) {
    if (CompareWorldsOnBase(base, v[i - 1], v[i]) >= 0) {
      bounds.push_back(static_cast<uint32_t>(i));
    }
  }
  if (bounds.size() == 1) return;
  bounds.push_back(static_cast<uint32_t>(v.size()));
  std::vector<uint32_t> order(v.size());
  std::iota(order.begin(), order.end(), 0u);
  std::vector<uint32_t> merged(v.size());
  std::vector<uint32_t> next;
  while (bounds.size() > 2) {
    next.assign(1, 0);
    uint32_t out = 0;
    for (size_t r = 0; r + 1 < bounds.size(); r += 2) {
      uint32_t a = bounds[r];
      const uint32_t a_end = bounds[r + 1];
      uint32_t b = a_end;
      const uint32_t b_end = r + 2 < bounds.size() ? bounds[r + 2] : a_end;
      while (a < a_end && b < b_end) {
        const int c = CompareWorldsOnBase(base, v[order[a]], v[order[b]]);
        if (c <= 0) {
          merged[out++] = order[a++];
          if (c == 0) ++b;  // The same world: keep one.
        } else {
          merged[out++] = order[b++];
        }
      }
      while (a < a_end) merged[out++] = order[a++];
      while (b < b_end) merged[out++] = order[b++];
      next.push_back(out);
    }
    order.swap(merged);
    bounds.swap(next);
  }
  std::vector<WorldOverlay> sorted;
  sorted.reserve(bounds[1]);
  for (uint32_t k = 0; k < bounds[1]; ++k) sorted.push_back(std::move(v[order[k]]));
  v = std::move(sorted);
}

/// True when `base` extends `input_base` by appending relations: the same
/// declaration and the same relation at every position of the input schema.
bool ExtendsByAppending(const Database& input_base, const Database& base) {
  const Schema& schema = input_base.schema();
  if (base.schema().size() < schema.size()) return false;
  for (size_t p = 0; p < schema.size(); ++p) {
    if (!(base.schema().decl(p) == schema.decl(p)) ||
        base.relation_at(p) != input_base.relation_at(p)) {
      return false;
    }
  }
  return true;
}

/// True when `a` and `b` are one buffer, or both empty or both the nullary
/// tuple: a check on handles that never reads rows.
bool SameStorage(const Relation& a, const Relation& b) {
  return a.StorageId() == b.StorageId() && a.size() == b.size() &&
         a.arity() == b.arity();
}

/// True when `output`'s deltas below position `n` are exactly `input`'s, in
/// the same storage: none changed, missing or extra.
bool KeepsInputBelow(const WorldOverlay& input, const WorldOverlay& output,
                     size_t n) {
  const std::vector<RelationDelta>& in = input.deltas();
  const std::vector<RelationDelta>& out = output.deltas();
  size_t k = 0;
  for (; k < out.size() && out[k].pos < n; ++k) {
    if (k >= in.size() || out[k].pos != in[k].pos ||
        !SameStorage(out[k].adds, in[k].adds) ||
        !SameStorage(out[k].dels, in[k].dels)) {
      return false;
    }
  }
  return k == in.size();
}

}  // namespace

void Knowledgebase::Canonicalize() { SortUnique(*base_, &overlays_); }

StatusOr<Knowledgebase> Knowledgebase::FromDatabases(std::vector<Database> databases) {
  Knowledgebase kb;
  if (databases.empty()) return kb;
  kb.schema_ = databases.front().schema();
  for (const Database& db : databases) {
    if (db.schema() != kb.schema_) {
      return Status::InvalidArgument(
          "knowledgebase members must share one schema; got " +
          db.schema().ToString() + " vs " + kb.schema_.ToString());
    }
  }
  // Anchor the base at the smallest member (the first world in canonical
  // order) and diff every member against it; Canonicalize then collapses the
  // duplicates and sorts, as for every other constructor.
  kb.base_ = std::make_shared<const Database>(
      *std::min_element(databases.begin(), databases.end()));
  kb.overlays_.reserve(databases.size());
  for (const Database& db : databases) {
    kb.overlays_.push_back(WorldOverlay::FromDiff(*kb.base_, db));
  }
  kb.Canonicalize();
  return kb;
}

Knowledgebase Knowledgebase::Singleton(Database db) {
  Knowledgebase kb;
  kb.schema_ = db.schema();
  kb.base_ = std::make_shared<const Database>(std::move(db));
  kb.overlays_.emplace_back();  // Identity: the single world is the base.
  return kb;
}

StatusOr<Knowledgebase> Knowledgebase::FromBaseAndOverlays(
    std::shared_ptr<const Database> base, std::vector<WorldOverlay> overlays) {
  if (base == nullptr) {
    return Status::InvalidArgument("FromBaseAndOverlays: null base");
  }
  if (overlays.empty()) return Knowledgebase(base->schema());
  Knowledgebase kb;
  kb.schema_ = base->schema();
  kb.base_ = std::move(base);
  kb.overlays_ = std::move(overlays);
  kb.Canonicalize();
  return kb;
}

StatusOr<Knowledgebase> Knowledgebase::FromWorldOutputs(
    const Knowledgebase& input, std::shared_ptr<const Database> base,
    std::vector<WorldOverlay> outputs, const std::vector<size_t>& first) {
  if (base == nullptr) {
    return Status::InvalidArgument("FromWorldOutputs: null base");
  }
  if (first.size() != input.size() + 1 || first.front() != 0 ||
      first.back() != outputs.size() ||
      !std::is_sorted(first.begin(), first.end())) {
    return Status::InvalidArgument(
        "FromWorldOutputs: output groups do not match the input worlds");
  }
  if (outputs.empty()) return Knowledgebase(base->schema());
  // Checked, never assumed: every output keeps its input world's overlay at
  // every σ(kb) position, in the same storage, and σ(kb) is a prefix of the
  // base's schema with the same relations.
  const size_t n = input.schema_.size();
  bool structural = ExtendsByAppending(*input.base_, *base);
  bool singles = true;  // No world has two outputs.
  for (size_t i = 0; structural && i < input.size(); ++i) {
    singles = singles && first[i + 1] - first[i] <= 1;
    for (size_t k = first[i]; structural && k < first[i + 1]; ++k) {
      structural = KeepsInputBelow(input.overlays_[i], outputs[k], n);
    }
  }
  if (!structural) {
    return FromBaseAndOverlays(std::move(base), std::move(outputs));
  }
  // Outputs of input worlds i < j first differ below n, where they are
  // worlds i and j, which the input orders already: only one world's own
  // outputs need ordering among themselves.
  Knowledgebase kb;
  kb.schema_ = base->schema();
  kb.base_ = std::move(base);
  if (singles) {
    kb.overlays_ = std::move(outputs);
    return kb;
  }
  kb.overlays_.reserve(outputs.size());
  std::vector<WorldOverlay> group;
  for (size_t i = 0; i < input.size(); ++i) {
    auto begin = outputs.begin() + static_cast<ptrdiff_t>(first[i]);
    auto end = outputs.begin() + static_cast<ptrdiff_t>(first[i + 1]);
    if (end - begin == 1) {
      kb.overlays_.push_back(std::move(*begin));
      continue;
    }
    group.assign(std::make_move_iterator(begin), std::make_move_iterator(end));
    SortUnique(*kb.base_, &group);
    std::move(group.begin(), group.end(), std::back_inserter(kb.overlays_));
  }
  return kb;
}

Knowledgebase Knowledgebase::SelectWorlds(const std::vector<size_t>& indices) const {
  if (indices.empty()) return Knowledgebase(schema_);
  Knowledgebase out;
  out.schema_ = schema_;
  out.base_ = base_;
  out.overlays_.reserve(indices.size());
  for (size_t i : indices) out.overlays_.push_back(overlays_[i]);
  return out;
}

size_t Knowledgebase::ApproxHeapBytes() const {
  if (overlays_.empty()) return 0;
  // Tuple buffers are shared (base relations reused across worlds, delta
  // relations reused across copies), so count each distinct buffer once.
  std::set<const void*> seen;
  size_t bytes = 0;
  auto add_relation = [&](const Relation& r) {
    if (r.StorageId() == nullptr) return;
    if (seen.insert(r.StorageId()).second) bytes += r.HeapBytes();
  };
  for (const Relation& r : base_->relations()) add_relation(r);
  bytes += base_->relations().capacity() * sizeof(Relation);
  for (const WorldOverlay& ov : overlays_) {
    for (const RelationDelta& d : ov.deltas()) {
      add_relation(d.adds);
      add_relation(d.dels);
    }
    bytes += ov.deltas().capacity() * sizeof(RelationDelta);
  }
  bytes += overlays_.capacity() * sizeof(WorldOverlay);
  return bytes;
}

bool Knowledgebase::Contains(const Database& db) const {
  if (db.schema() != schema_ || overlays_.empty()) return false;
  WorldOverlay probe = WorldOverlay::FromDiff(*base_, db);
  return std::binary_search(overlays_.begin(), overlays_.end(), probe,
                            OverlayLess{base_.get()});
}

StatusOr<Knowledgebase> Knowledgebase::UnionAll(std::vector<Knowledgebase> parts) {
  Knowledgebase out;
  if (parts.empty()) return out;
  // Adopt the first non-default schema (all μ results of one τ call share the
  // extended schema, even the empty ones), falling back to the first part's.
  out.schema_ = parts.front().schema_;
  for (const Knowledgebase& part : parts) {
    if (part.schema_.size() != 0) {
      out.schema_ = part.schema_;
      break;
    }
  }
  size_t total = 0;
  for (const Knowledgebase& part : parts) total += part.size();
  out.overlays_.reserve(total);
  for (Knowledgebase& part : parts) {
    if (part.empty()) continue;
    if (part.schema_ != out.schema_) {
      return Status::InvalidArgument("knowledgebase union: schema mismatch");
    }
    if (out.base_ == nullptr) {
      // The first non-empty part anchors the shared base; its overlays move.
      out.base_ = std::move(part.base_);
      std::move(part.overlays_.begin(), part.overlays_.end(),
                std::back_inserter(out.overlays_));
      continue;
    }
    if (part.base_ == out.base_ || *part.base_ == *out.base_) {
      // Shared base (the common case on the τ result path): overlays carry
      // over untouched, O(1) each.
      std::move(part.overlays_.begin(), part.overlays_.end(),
                std::back_inserter(out.overlays_));
    } else {
      for (size_t i = 0; i < part.size(); ++i) {
        out.overlays_.push_back(
            WorldOverlay::FromDiff(*out.base_, part.World(i)));
      }
    }
  }
  if (out.base_ == nullptr) return Knowledgebase(out.schema_);  // All empty.
  out.Canonicalize();
  return out;
}

Knowledgebase Knowledgebase::Glb() const {
  if (overlays_.empty()) return *this;
  // ⊓ = ∩_i ((B \ D_i) ∪ A_i) per relation. Adds never meet the base and dels
  // always do, so the cross terms vanish: ⊓ = (B \ ∪_i D_i) ∪ (∩_i A_i),
  // computed only at positions some overlay touches.
  Database acc = *base_;
  for (size_t p = 0; p < schema_.size(); ++p) {
    bool touched = false;
    for (const WorldOverlay& ov : overlays_) {
      if (ov.FindDelta(p) != nullptr) {
        touched = true;
        break;
      }
    }
    if (!touched) continue;
    const Relation& base_rel = base_->relation_at(p);
    Relation all_dels(base_rel.arity());
    Relation common_adds;
    bool first = true;
    for (const WorldOverlay& ov : overlays_) {
      const RelationDelta* d = ov.FindDelta(p);
      const Relation empty(base_rel.arity());
      const Relation& adds = d != nullptr ? d->adds : empty;
      const Relation& dels = d != nullptr ? d->dels : empty;
      all_dels = all_dels.Union(dels);
      common_adds = first ? adds : common_adds.Intersect(adds);
      first = false;
    }
    acc.ReplaceRelation(p, base_rel.Difference(all_dels).Union(common_adds));
  }
  return Singleton(std::move(acc));
}

Knowledgebase Knowledgebase::Lub() const {
  if (overlays_.empty()) return *this;
  // ⊔ = ∪_i ((B \ D_i) ∪ A_i) = (B \ ∩_i D_i) ∪ (∪_i A_i), dual to Glb.
  Database acc = *base_;
  for (size_t p = 0; p < schema_.size(); ++p) {
    bool touched = false;
    for (const WorldOverlay& ov : overlays_) {
      if (ov.FindDelta(p) != nullptr) {
        touched = true;
        break;
      }
    }
    if (!touched) continue;
    const Relation& base_rel = base_->relation_at(p);
    Relation all_adds(base_rel.arity());
    Relation common_dels;
    bool first = true;
    for (const WorldOverlay& ov : overlays_) {
      const RelationDelta* d = ov.FindDelta(p);
      const Relation empty(base_rel.arity());
      const Relation& adds = d != nullptr ? d->adds : empty;
      const Relation& dels = d != nullptr ? d->dels : empty;
      all_adds = all_adds.Union(adds);
      common_dels = first ? dels : common_dels.Intersect(dels);
      first = false;
    }
    acc.ReplaceRelation(p, base_rel.Difference(common_dels).Union(all_adds));
  }
  return Singleton(std::move(acc));
}

StatusOr<Knowledgebase> Knowledgebase::ProjectTo(
    const std::vector<Symbol>& symbols) const {
  if (overlays_.empty()) {
    // Preserve the projected schema even with no worlds.
    Database probe(schema_);
    KBT_ASSIGN_OR_RETURN(Database projected, probe.ProjectTo(symbols));
    return Knowledgebase(projected.schema());
  }
  // Project the base once, remap delta positions old → new, and drop deltas of
  // relations projected away. Projection preserves the overlay invariants
  // per surviving relation, but distinct worlds can collapse and the order
  // can change, so the result re-canonicalizes.
  KBT_ASSIGN_OR_RETURN(Database projected_base, base_->ProjectTo(symbols));
  auto new_base = std::make_shared<const Database>(std::move(projected_base));
  const Schema& new_schema = new_base->schema();
  std::vector<WorldOverlay> out;
  out.reserve(overlays_.size());
  for (const WorldOverlay& ov : overlays_) {
    std::vector<RelationDelta> deltas;
    for (const RelationDelta& d : ov.deltas()) {
      std::optional<size_t> np =
          new_schema.PositionOf(schema_.decl(d.pos).symbol);
      if (!np.has_value()) continue;  // Projected away.
      RelationDelta nd = d;
      nd.pos = static_cast<uint32_t>(*np);
      deltas.push_back(std::move(nd));
    }
    out.push_back(WorldOverlay::FromDeltas(std::move(deltas)));
  }
  return FromBaseAndOverlays(std::move(new_base), std::move(out));
}

StatusOr<Knowledgebase> Knowledgebase::ExtendTo(const Schema& super) const {
  if (overlays_.empty()) {
    if (!super.Includes(schema_)) {
      return Status::InvalidArgument("ExtendTo: target schema does not dominate");
    }
    return Knowledgebase(super);
  }
  // Extend the base once; overlays follow with their delta positions remapped
  // (new relations are empty in every world, so no new deltas appear, and
  // extension preserves the invariants, distinctness, and — when `super`
  // appends to `schema_`, the common case — the canonical order, which
  // FromBaseAndOverlays then confirms in one pass; positions can permute in
  // general, and then it sorts).
  KBT_ASSIGN_OR_RETURN(Database extended_base, base_->ExtendTo(super));
  auto new_base = std::make_shared<const Database>(std::move(extended_base));
  std::vector<WorldOverlay> out;
  out.reserve(overlays_.size());
  for (const WorldOverlay& ov : overlays_) {
    std::vector<RelationDelta> deltas;
    deltas.reserve(ov.deltas().size());
    for (const RelationDelta& d : ov.deltas()) {
      std::optional<size_t> np = super.PositionOf(schema_.decl(d.pos).symbol);
      RelationDelta nd = d;
      nd.pos = static_cast<uint32_t>(*np);  // Present: super includes schema_.
      deltas.push_back(std::move(nd));
    }
    out.push_back(WorldOverlay::FromDeltas(std::move(deltas)));
  }
  return FromBaseAndOverlays(std::move(new_base), std::move(out));
}

std::string Knowledgebase::ToString() const {
  std::string out = "{ ";
  for (size_t i = 0; i < size(); ++i) {
    if (i > 0) out += ", ";
    out += World(i).ToString();
  }
  out += " }";
  return out;
}

bool operator==(const Knowledgebase& a, const Knowledgebase& b) {
  if (a.schema_ != b.schema_ || a.size() != b.size()) return false;
  if (a.empty()) return true;
  if (a.base_ == b.base_ || *a.base_ == *b.base_) {
    // One base: canonical overlays are a unique representation, so the world
    // sets are equal iff the overlay sequences are — O(worlds × delta).
    return a.overlays_ == b.overlays_;
  }
  // Different bases: compare the materialized canonical sequences.
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.World(i) != b.World(i)) return false;
  }
  return true;
}

}  // namespace kbt
