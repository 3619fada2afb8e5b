#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <memory>

#include "core/mu_internal.h"
#include "core/winslett_order.h"
#include "exec/ground_cache.h"

namespace kbt::internal {

namespace {

/// Per-relation bitmasks over the mentioned atoms, for fast Winslett comparison
/// of enumerated assignments without materializing databases.
struct MaskContext {
  uint64_t default_mask = 0;                  ///< Default value per atom bit.
  std::vector<uint64_t> old_relation_masks;   ///< One mask per σ(db) relation used.
  uint64_t new_mask = 0;                      ///< Bits of new-relation atoms.

  /// True iff model `a` is strictly ≤_db-closer than model `b`.
  bool StrictlyCloser(uint64_t a, uint64_t b) const {
    uint64_t da = a ^ default_mask;
    uint64_t db = b ^ default_mask;
    bool some_strict = false;
    for (uint64_t rel : old_relation_masks) {
      uint64_t d1 = da & rel;
      uint64_t d2 = db & rel;
      if ((d1 & ~d2) != 0) return false;  // Not a componentwise subset.
      if (d1 != d2) some_strict = true;
    }
    if (some_strict) return true;
    uint64_t n1 = a & new_mask;
    uint64_t n2 = b & new_mask;
    return (n1 & ~n2) == 0 && n1 != n2;
  }

  size_t DiffCount(uint64_t a) const {
    uint64_t bits = 0;
    for (uint64_t rel : old_relation_masks) bits |= (a ^ default_mask) & rel;
    return static_cast<size_t>(std::popcount(bits));
  }
  size_t NewCount(uint64_t a) const {
    return static_cast<size_t>(std::popcount(a & new_mask));
  }
};

}  // namespace

StatusOr<Knowledgebase> MuReference(const Database& db, const UpdateContext& ctx,
                                    const MuGrounding& ground,
                                    const MuOptions& options, MuStats* stats) {
  // Same-domain worlds share one grounding (the circuit is read-only here);
  // ground updates over a τ fan-out hit this path via kAuto. The enumeration
  // covers ground.root's atoms: the whole root, or one component of it.
  const Grounding& g = ground.grounding->grounding;
  const std::vector<int>& vars = *ground.atoms;
  stats->ground_nodes = g.circuit.size();
  stats->ground_atoms = vars.size();

  if (vars.size() > options.max_reference_atoms || vars.size() > 62) {
    return Status::ResourceExhausted(
        "reference enumeration over " + std::to_string(vars.size()) +
        " ground atoms exceeds the budget of " +
        std::to_string(options.max_reference_atoms));
  }

  // Per-relation masks over the mentioned atoms; at most 62 of them, so the
  // world's bits are one word and that word is the default mask.
  const size_t k = vars.size();
  MaskContext masks;
  if (k > 0) masks.default_mask = ground.bits[0];
  std::map<Symbol, uint64_t> old_groups;
  for (size_t i = 0; i < k; ++i) {
    const GroundAtom atom = g.atoms.AtomOf(vars[i]);
    uint64_t bit = uint64_t{1} << i;
    if (IsOldAtom(atom, db)) {
      old_groups[atom.relation] |= bit;
    } else {
      masks.new_mask |= bit;
    }
  }
  for (const auto& [symbol, mask] : old_groups) {
    masks.old_relation_masks.push_back(mask);
  }

  // Enumerate every assignment to the mentioned atoms. In any minimal model the
  // unmentioned atoms keep their default (deviating only moves a candidate farther
  // from db), so this is exhaustive for minimality purposes.
  std::vector<uint64_t> models;
  std::vector<int8_t> memo(g.circuit.size());
  std::vector<bool> assignment(g.atoms.size(), false);
  std::function<bool(int)> eval = [&](int id) -> bool {
    if (memo[static_cast<size_t>(id)] != 0) {
      return memo[static_cast<size_t>(id)] == 2;
    }
    const Circuit::Node& n = g.circuit.node(id);
    bool result = false;
    switch (n.kind) {
      case Circuit::NodeKind::kConst:
        result = (n.var == 1);
        break;
      case Circuit::NodeKind::kVar:
        result = assignment[static_cast<size_t>(n.var)];
        break;
      case Circuit::NodeKind::kNot:
        result = !eval(n.children[0]);
        break;
      case Circuit::NodeKind::kAnd:
        result = true;
        for (int c : n.children) {
          if (!eval(c)) {
            result = false;
            break;
          }
        }
        break;
      case Circuit::NodeKind::kOr:
        for (int c : n.children) {
          if (eval(c)) {
            result = true;
            break;
          }
        }
        break;
    }
    memo[static_cast<size_t>(id)] = result ? 2 : 1;
    return result;
  };

  for (uint64_t mask = 0; mask < (uint64_t{1} << k); ++mask) {
    // Up to 2^max_reference_atoms assignments: poll the request token every
    // 1024 so a cancelled request unwinds promptly (no-op when token-free).
    if (options.cancel != nullptr && (mask & 1023) == 0 &&
        options.cancel->Expired()) {
      return Status::DeadlineExceeded("μ cancelled during reference enumeration");
    }
    for (size_t i = 0; i < k; ++i) {
      assignment[static_cast<size_t>(vars[i])] = ((mask >> i) & 1) != 0;
    }
    std::fill(memo.begin(), memo.end(), 0);
    ++stats->candidates_examined;
    if (eval(ground.root)) models.push_back(mask);
  }

  // Minimal-element selection on masks: dominators have lexicographically
  // smaller (|Δ|, |new|) keys, so a sorted scan against accepted minima suffices.
  std::stable_sort(models.begin(), models.end(), [&](uint64_t a, uint64_t b) {
    size_t da = masks.DiffCount(a), db_count = masks.DiffCount(b);
    if (da != db_count) return da < db_count;
    return masks.NewCount(a) < masks.NewCount(b);
  });
  std::vector<uint64_t> minimal_masks;
  for (uint64_t m : models) {
    bool minimal = true;
    for (uint64_t accepted : minimal_masks) {
      if (masks.StrictlyCloser(accepted, m)) {
        minimal = false;
        break;
      }
    }
    if (minimal) minimal_masks.push_back(m);
  }

  stats->minimal_models = minimal_masks.size();
  if (minimal_masks.empty()) return Knowledgebase(ctx.schema);
  // Delta materialization: one precomputation (groups, tuple order, base
  // membership), then one merge pass per minimal model. The dense id → bit
  // table replaces the per-atom linear scan over `vars`.
  KBT_ASSIGN_OR_RETURN(ModelMaterializer materializer,
                       ModelMaterializer::Make(ctx, g.atoms, vars));
  std::vector<int> bit_of(g.atoms.size(), -1);
  for (size_t i = 0; i < k; ++i) bit_of[static_cast<size_t>(vars[i])] = static_cast<int>(i);
  std::vector<WorldOverlay> minimal;
  minimal.reserve(minimal_masks.size());
  for (uint64_t m : minimal_masks) {
    KBT_ASSIGN_OR_RETURN(WorldOverlay model,
                         materializer.MaterializeOverlay([&](int id) {
                           int bit = bit_of[static_cast<size_t>(id)];
                           return bit >= 0 && ((m >> bit) & 1) != 0;
                         }));
    minimal.push_back(std::move(model));
  }
  return Knowledgebase::FromBaseAndOverlays(
      std::make_shared<const Database>(ctx.extended_base), std::move(minimal));
}

}  // namespace kbt::internal
