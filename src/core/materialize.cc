/// \file
/// Model materialization: turning (atom id → truth value) assignments into
/// worlds over the update context's schema.
///
/// MaterializeModel is the specification: group deviations in a map, rebuild
/// each touched relation via Union/Difference into a flat database. μ emits
/// its models as overlays against ctx.extended_base through the other two:
/// MaterializeOverlayModel, the same grouping without the rebuild, and
/// ModelMaterializer, the enumeration-loop form, which hoists everything that
/// depends only on (ctx, grounding) — relation positions, tuple order, base
/// membership — into one precomputation per μ call, so each model costs one
/// pass over its mentioned atoms. τ over many worlds multiplies the saving by
/// worlds × models.

#include <algorithm>
#include <map>

#include "core/mu_internal.h"

namespace kbt::internal {

StatusOr<Database> MaterializeModel(
    const UpdateContext& ctx, const AtomIndex& atoms,
    const std::vector<int>& mentioned_atom_ids,
    const std::function<bool(int)>& atom_value) {
  // Group deviations per relation, then rebuild each touched relation once.
  std::map<Symbol, std::pair<std::vector<Tuple>, std::vector<Tuple>>> edits;
  for (int id : mentioned_atom_ids) {
    const GroundAtom atom = atoms.AtomOf(id);
    const Relation* current = ctx.extended_base.FindRelation(atom.relation);
    if (current == nullptr) {
      return Status::NotFound("relation not in schema: " + NameOf(atom.relation));
    }
    bool present = current->Contains(atom.tuple);
    bool wanted = atom_value(id);
    if (present == wanted) continue;
    auto& [adds, removes] = edits[atom.relation];
    (wanted ? adds : removes).push_back(atom.tuple.ToTuple());
  }
  Database out = ctx.extended_base;
  for (auto& [symbol, add_remove] : edits) {
    KBT_ASSIGN_OR_RETURN(Relation r, out.RelationFor(symbol));
    Relation adds(r.arity(), std::move(add_remove.first));
    Relation removes(r.arity(), std::move(add_remove.second));
    KBT_ASSIGN_OR_RETURN(out, out.WithRelation(symbol,
                                               r.Union(adds).Difference(removes)));
  }
  return out;
}

StatusOr<WorldOverlay> MaterializeOverlayModel(
    const UpdateContext& ctx, const AtomIndex& atoms,
    const std::vector<int>& mentioned_atom_ids,
    const std::function<bool(int)>& atom_value) {
  std::map<Symbol, std::pair<std::vector<Tuple>, std::vector<Tuple>>> edits;
  for (int id : mentioned_atom_ids) {
    const GroundAtom atom = atoms.AtomOf(id);
    const Relation* current = ctx.extended_base.FindRelation(atom.relation);
    if (current == nullptr) {
      return Status::NotFound("relation not in schema: " + NameOf(atom.relation));
    }
    bool present = current->Contains(atom.tuple);
    bool wanted = atom_value(id);
    if (present == wanted) continue;
    auto& [adds, removes] = edits[atom.relation];
    (wanted ? adds : removes).push_back(atom.tuple.ToTuple());
  }
  // The deviations ARE the overlay: atoms wanted true but absent are the adds
  // (disjoint from the base by the membership test above), atoms wanted false
  // but present are the dels (contained in it) — canonical by construction.
  std::vector<RelationDelta> deltas;
  deltas.reserve(edits.size());
  for (auto& [symbol, add_remove] : edits) {
    std::optional<size_t> pos = ctx.schema.PositionOf(symbol);
    if (!pos) {
      return Status::NotFound("relation not in schema: " + NameOf(symbol));
    }
    size_t arity = ctx.schema.decl(*pos).arity;
    RelationDelta d;
    d.pos = static_cast<uint32_t>(*pos);
    d.adds = Relation(arity, std::move(add_remove.first));
    d.dels = Relation(arity, std::move(add_remove.second));
    deltas.push_back(std::move(d));
  }
  return WorldOverlay::FromDeltas(std::move(deltas));
}

Status ModelMaterializer::Rebuild(const UpdateContext& ctx,
                                  const AtomIndex& atoms,
                                  const std::vector<int>& mentioned_atom_ids) {
  ctx_ = &ctx;
  entries_.clear();
  groups_.clear();
  // One flat entry list sorted by (schema position, tuple); groups are the
  // runs. Grounding visits relations in clusters and emits tuples in near
  // order, so the sort's branch behavior is benign; no per-bucket containers,
  // and every buffer keeps its capacity across Rebuilds (a WorldScratch parks
  // one materializer per worker for exactly this reason).
  keyed_.clear();
  keyed_.reserve(mentioned_atom_ids.size());
  for (int id : mentioned_atom_ids) {
    const GroundAtom atom = atoms.AtomOf(id);
    std::optional<size_t> pos = ctx.schema.PositionOf(atom.relation);
    if (!pos) {
      ctx_ = nullptr;  // Half-built state must not be Materialized.
      return Status::NotFound("relation not in schema: " + NameOf(atom.relation));
    }
    const Relation& base = ctx.extended_base.relation_at(*pos);
    // The TupleView borrows the AtomIndex's value buffer — stable for the
    // materializer's lifetime because the grounding interns nothing more
    // once built.
    keyed_.push_back(
        {*pos, AtomEntry{id, atom.tuple, base.Contains(atom.tuple)}});
  }
  // Sorting by tuple within a relation makes each model's add/remove
  // subsequences sorted, so MaterializeOverlay emits them as they come and
  // Relation::Builder takes its already-sorted path. Mentioned atoms
  // are distinct, so the order is total (ties impossible within one relation).
  std::sort(keyed_.begin(), keyed_.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second.tuple < b.second.tuple;
            });
  entries_.reserve(keyed_.size());
  for (size_t i = 0; i < keyed_.size();) {
    size_t j = i;
    while (j < keyed_.size() && keyed_[j].first == keyed_[i].first) ++j;
    groups_.push_back(Group{keyed_[i].first, static_cast<uint32_t>(i),
                            static_cast<uint32_t>(j)});
    for (size_t k = i; k < j; ++k) entries_.push_back(keyed_[k].second);
    i = j;
  }
  return Status::OK();
}

StatusOr<ModelMaterializer> ModelMaterializer::Make(
    const UpdateContext& ctx, const AtomIndex& atoms,
    const std::vector<int>& mentioned_atom_ids) {
  ModelMaterializer m;
  KBT_RETURN_IF_ERROR(m.Rebuild(ctx, atoms, mentioned_atom_ids));
  return m;
}

StatusOr<WorldOverlay> ModelMaterializer::MaterializeOverlay(
    const std::function<bool(int)>& atom_value) const {
  std::vector<RelationDelta> deltas;
  for (const Group& group : groups_) {
    adds_.clear();
    removes_.clear();
    for (uint32_t e = group.begin; e < group.end; ++e) {
      const AtomEntry& entry = entries_[e];
      bool wanted = atom_value(entry.id);
      if (wanted == entry.present) continue;
      (wanted ? adds_ : removes_).push_back(entry.tuple);
    }
    if (adds_.empty() && removes_.empty()) continue;
    const Relation& base = ctx_->extended_base.relation_at(group.schema_pos);
    size_t arity = base.arity();
    RelationDelta d;
    d.pos = static_cast<uint32_t>(group.schema_pos);
    if (arity == 0) {
      // At most one deviation exists for the single nullary tuple.
      d.adds = Relation(0);
      d.dels = Relation(0);
      if (!adds_.empty()) d.adds = d.adds.WithTuple(TupleView());
      if (!removes_.empty()) d.dels = d.dels.WithTuple(TupleView());
    } else {
      // Groups are tuple-sorted and atoms distinct, so both lists hit the
      // builder's already-sorted fast path; adds are absent from the base and
      // removes present in it by the precomputed membership, which is exactly
      // the canonical overlay invariant.
      Relation::Builder ab(arity);
      ab.Reserve(adds_.size());
      for (TupleView t : adds_) ab.Append(t);
      d.adds = ab.Build();
      Relation::Builder rb(arity);
      rb.Reserve(removes_.size());
      for (TupleView t : removes_) rb.Append(t);
      d.dels = rb.Build();
    }
    deltas.push_back(std::move(d));
  }
  // Groups come out of Rebuild position-sorted, so this sorts nothing.
  return WorldOverlay::FromDeltas(std::move(deltas));
}

}  // namespace kbt::internal
