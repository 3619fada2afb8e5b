#include "core/mu_internal.h"
#include "datalog/analysis.h"
#include "datalog/eval.h"
#include "datalog/from_fo.h"

namespace kbt::internal {

StatusOr<std::optional<DatalogPlan>> PlanDatalog(const Formula& sentence,
                                                 const Database& db) {
  KBT_ASSIGN_OR_RETURN(std::optional<datalog::Program> program,
                       datalog::FromFirstOrder(sentence));
  if (!program) return std::optional<DatalogPlan>{};
  // Fast-path preconditions beyond Horn shape (anything else falls back to the
  // generic engine rather than erroring):
  //  * safety — ∀x R(x) and friends are Horn but not Datalog-evaluable;
  //  * every head predicate is new w.r.t. σ(db) — the least fixpoint is then the
  //    unique ≤_db-minimal model (Δ = ∅ is achievable, and Horn theories with
  //    fixed EDB have componentwise-least models).
  if (!datalog::CheckSafety(*program).ok()) return std::optional<DatalogPlan>{};
  for (Symbol head : program->HeadPredicates()) {
    if (db.schema().Contains(head)) return std::optional<DatalogPlan>{};
  }
  return std::optional<DatalogPlan>{DatalogPlan{std::move(*program)}};
}

StatusOr<Knowledgebase> MuDatalog(const DatalogPlan& plan, const Database& db,
                                  const UpdateContext& ctx, MuStats* stats) {
  datalog::EvalStats estats;
  KBT_ASSIGN_OR_RETURN(Database least,
                       datalog::Evaluate(plan.program, db, &estats));
  stats->datalog_rounds = estats.rounds;
  stats->datalog_derived_tuples = estats.derived_tuples;
  stats->minimal_models = 1;
  // The least model deviates from db only on predicates new w.r.t. σ(db) (the
  // fast-path precondition), and ctx.schema appends those after σ(db)'s
  // declarations — so the result is ctx.extended_base plus pure-add deltas at
  // the new positions. Derived relations are adopted by reference; the EDB is
  // never copied.
  std::vector<RelationDelta> deltas;
  for (size_t p = db.schema().size(); p < ctx.schema.size(); ++p) {
    const Relation* derived = least.FindRelation(ctx.schema.decl(p).symbol);
    if (derived == nullptr || derived->empty()) continue;
    RelationDelta d;
    d.pos = static_cast<uint32_t>(p);
    d.adds = *derived;
    d.dels = Relation(derived->arity());
    deltas.push_back(std::move(d));
  }
  std::vector<WorldOverlay> overlays;
  overlays.push_back(WorldOverlay::FromDeltas(std::move(deltas)));
  return Knowledgebase::FromBaseAndOverlays(
      std::make_shared<const Database>(ctx.extended_base), std::move(overlays));
}

}  // namespace kbt::internal
