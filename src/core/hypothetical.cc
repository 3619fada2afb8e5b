#include "core/hypothetical.h"

#include "core/tau.h"
#include "eval/model_check.h"
#include "logic/analysis.h"

namespace kbt {

namespace {

/// The chain's tail: extend the schema so the consequent's satisfaction is
/// defined, then fold the modality over the worlds. `cancel`
/// (nullable) is polled per world — a chain may yield many worlds and each
/// Satisfies is a full model check.
StatusOr<bool> CheckConsequent(Knowledgebase current, const Formula& consequent,
                               Modality modality, const CancelToken* cancel) {
  // The consequent may mention relations the updates introduced; extend the
  // schema so satisfaction is defined (new relations are empty under CWA).
  KBT_ASSIGN_OR_RETURN(Schema consequent_schema, SchemaOf(consequent));
  if (!current.schema().Includes(consequent_schema)) {
    KBT_ASSIGN_OR_RETURN(Schema extended,
                         current.schema().Union(consequent_schema));
    KBT_ASSIGN_OR_RETURN(current, current.ExtendTo(extended));
  }
  // The answer is settled by the first world that fails (necessarily) or
  // holds (possibly). Stopping there drops no error: Satisfies fails only on
  // schema and formula shape, which every world shares.
  const bool necessarily = modality == Modality::kNecessarily;
  for (size_t i = 0; i < current.size(); ++i) {
    if (cancel != nullptr && cancel->Expired()) {
      return Status::DeadlineExceeded("query cancelled during consequent check");
    }
    Database db = current.World(i);  // Transient copy-on-write materialization.
    KBT_ASSIGN_OR_RETURN(bool holds, Satisfies(db, consequent));
    if (holds != necessarily) return holds;
  }
  return necessarily;
}

}  // namespace

StatusOr<bool> NestedCounterfactual(const Knowledgebase& kb,
                                    const std::vector<ChainStep>& steps,
                                    const Formula& consequent,
                                    Modality modality,
                                    const TauOptions& options,
                                    TauStats* stats) {
  Knowledgebase current = kb;
  for (const ChainStep& step : steps) {
    // Between chain steps is the coarsest useful cancellation boundary: each
    // τ may fan a world-set out by orders of magnitude. (τ itself re-checks
    // per world and inside the SAT search via options.mu.cancel.)
    if (options.mu.cancel != nullptr && options.mu.cancel->Expired()) {
      return Status::DeadlineExceeded("query cancelled between chain steps");
    }
    // The base options carry the session-wide resources (pool, pinned solver,
    // scratch, μ options); only the per-sentence caches vary per step.
    TauOptions step_options = options;
    step_options.ground_cache = step.ground_cache;
    step_options.cnf_cache = step.cnf_cache;
    // Tau adds its work counters into whatever stats object arrives, so
    // passing the same one per step accumulates them across the chain
    // (core/tau.h).
    KBT_ASSIGN_OR_RETURN(current,
                         Tau(*step.antecedent, current, step_options, stats));
  }
  return CheckConsequent(std::move(current), consequent, modality,
                         options.mu.cancel);
}

StatusOr<bool> NestedCounterfactual(const Knowledgebase& kb,
                                    const std::vector<Formula>& antecedents,
                                    const Formula& consequent, Modality modality,
                                    const MuOptions& options) {
  std::vector<ChainStep> steps(antecedents.size());
  for (size_t i = 0; i < antecedents.size(); ++i) {
    steps[i].antecedent = &antecedents[i];
  }
  TauOptions tau_options;
  tau_options.mu = options;
  return NestedCounterfactual(kb, steps, consequent, modality, tau_options);
}

}  // namespace kbt
