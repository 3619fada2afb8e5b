#include "exec/cnf_cache.h"

#include "sat/tseitin.h"

namespace kbt::exec {

StatusOr<std::shared_ptr<const FrozenCnf>> MakeFrozenCnf(
    const Formula& sentence, const std::vector<Value>& domain,
    const GrounderOptions& options, GroundingCache* ground_cache) {
  auto cnf = std::make_shared<FrozenCnf>();
  if (ground_cache != nullptr) {
    KBT_ASSIGN_OR_RETURN(cnf->grounding,
                         ground_cache->GetOrGround(sentence, domain, options));
  } else {
    KBT_ASSIGN_OR_RETURN(cnf->grounding,
                         MakeCachedGrounding(sentence, domain, options));
  }
  const Grounding& g = cnf->grounding->grounding;
  // A root of ⊥ has no models: the enumerator bails out before touching a
  // solver, so the prefix stays empty (and costs nothing to build). A split
  // grounding gets none either: τ runs μ per component, each encoding its
  // own part, so a prefix of the whole root would never be forked.
  if (g.root != g.circuit.FalseNode() && cnf->grounding->components.empty()) {
    // Encode into a scratch solver exactly as the enumerator would, then
    // freeze. Encoding the root creates the solver variable of every atom
    // mentioned by it (left-to-right, as a fresh per-world encoder does), so
    // the snapshot below is byte-identical to the per-world state at the same
    // point.
    sat::Solver solver;
    sat::TseitinEncoder encoder(&g.circuit, &solver);
    encoder.Assert(g.root);
    cnf->atom_var.assign(g.atoms.size(), -1);
    for (int atom_id : cnf->grounding->mentioned) {
      cnf->atom_var[static_cast<size_t>(atom_id)] = encoder.VarForAtom(atom_id);
    }
    cnf->node_lit = encoder.node_lits();
    solver.Freeze(&cnf->prefix);
  }
  return std::shared_ptr<const FrozenCnf>(std::move(cnf));
}

}  // namespace kbt::exec
