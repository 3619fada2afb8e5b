#ifndef KBT_CORE_HYPOTHETICAL_H_
#define KBT_CORE_HYPOTHETICAL_H_

/// \file
/// Hypothetical and counterfactual queries (§1, Example 4, [GM95]).
///
/// A counterfactual A > B asks: "if A were inserted, would B hold?" — evaluated
/// by updating with A and checking B over the resulting worlds, either in all of
/// them (necessity, the ⊓-flavored reading) or in some (possibility, ⊔-flavored).
/// Right-nested chains A1 > (A2 > (... > B)) are sequential updates
/// τ_{A1}, τ_{A2}, ... followed by the check, exactly as the paper's note after
/// Example 4 describes.

#include <vector>

#include "base/status.h"
#include "core/mu.h"
#include "core/tau.h"
#include "logic/formula.h"
#include "rel/knowledgebase.h"

namespace kbt {

enum class Modality {
  /// B must hold in every world of the updated knowledgebase (vacuously true
  /// when the update is inconsistent).
  kNecessarily,
  /// B must hold in at least one world.
  kPossibly,
};

/// One antecedent of a chain, with the executor caches for its τ step (either
/// may be null; see TauOptions::ground_cache/cnf_cache — a cache must only
/// ever see this step's sentence). The formula is borrowed and must outlive
/// the call; the serving layer points it at the cache bank's canonical parse
/// so every borrower of one cache evaluates the identical formula.
struct ChainStep {
  const Formula* antecedent = nullptr;
  exec::GroundingCache* ground_cache = nullptr;
  exec::CnfCache* cnf_cache = nullptr;
};

/// Right-nested chain A1 > (A2 > … > B): the antecedents are inserted left to
/// right by τ, then the consequent is checked under `modality`. An empty
/// chain degenerates to a plain modal query. Each τ step runs with `options`
/// (pool, session-pinned solver and scratch, μ options) plus its step's
/// caches. `options.mu.cancel` is polled between steps and per world of the
/// check. `stats` (nullable) accumulates the per-step τ statistics — each
/// step adds its μ, cache and class counters (core/tau.h), so a serving
/// layer can surface solver budget/interrupt activity per request.
StatusOr<bool> NestedCounterfactual(const Knowledgebase& kb,
                                    const std::vector<ChainStep>& steps,
                                    const Formula& consequent,
                                    Modality modality,
                                    const TauOptions& options,
                                    TauStats* stats = nullptr);

/// The same chain over plain formulas, with no caches and default τ options
/// around `options`.
StatusOr<bool> NestedCounterfactual(const Knowledgebase& kb,
                                    const std::vector<Formula>& antecedents,
                                    const Formula& consequent,
                                    Modality modality = Modality::kNecessarily,
                                    const MuOptions& options = MuOptions());

}  // namespace kbt

#endif  // KBT_CORE_HYPOTHETICAL_H_
