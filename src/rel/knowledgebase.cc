#include "rel/knowledgebase.h"

#include <algorithm>
#include <set>
#include <unordered_map>

namespace kbt {

namespace {

/// Strict-weak-order adapter over CompareWorldsOnBase for sort/binary_search.
struct OverlayLess {
  const Database* base;
  bool operator()(const WorldOverlay& a, const WorldOverlay& b) const {
    return CompareWorldsOnBase(*base, a, b) < 0;
  }
};

}  // namespace

void Knowledgebase::Canonicalize() {
  // A sequence that is strictly increasing is already sorted and free of
  // duplicates: at most n − 1 adjacent comparisons recognize it, and it is
  // kept as is. τ's outputs arrive so whenever μ leaves σ(kb) alone, and a
  // decoded checkpoint always does.
  const OverlayLess less{base_.get()};
  if (std::adjacent_find(overlays_.begin(), overlays_.end(),
                         [&less](const WorldOverlay& a, const WorldOverlay& b) {
                           return !less(a, b);
                         }) == overlays_.end()) {
    return;
  }
  // Overlays are a unique representation relative to one base, so world
  // equality is overlay equality: dedup needs no database comparisons. The
  // hashes are O(delta) each; relation hashes are cached in the shared
  // storage blocks.
  std::unordered_map<size_t, std::vector<size_t>> buckets;
  buckets.reserve(overlays_.size());
  size_t keep = 0;
  for (size_t i = 0; i < overlays_.size(); ++i) {
    std::vector<size_t>& bucket = buckets[overlays_[i].Hash()];
    bool duplicate = false;
    for (size_t j : bucket) {
      if (overlays_[j] == overlays_[i]) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    if (keep != i) overlays_[keep] = std::move(overlays_[i]);
    bucket.push_back(keep);
    ++keep;
  }
  overlays_.resize(keep);
  std::sort(overlays_.begin(), overlays_.end(), less);
}

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

StatusOr<Knowledgebase> Knowledgebase::WithDatabase(const Database& db) const {
  if (empty()) return Singleton(db);
  if (db.schema() != schema_) {
    return Status::InvalidArgument("WithDatabase: schema mismatch");
  }
  Knowledgebase out = *this;
  out.overlays_.push_back(WorldOverlay::FromDiff(*base_, db));
  out.Canonicalize();
  return out;
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
