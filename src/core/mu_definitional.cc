#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "base/cancel.h"
#include "core/mu_internal.h"
#include "datalog/eval.h"
#include "eval/model_check.h"
#include "logic/analysis.h"

namespace kbt::internal {

namespace {

/// Collects conjuncts of a (possibly nested) conjunction.
void FlattenAnd(const Formula& f, std::vector<Formula>* out) {
  if (f->kind() == FormulaKind::kAnd) {
    for (const Formula& c : f->children()) FlattenAnd(c, out);
  } else {
    out->push_back(f);
  }
}

/// Parses one conjunct as ∀x̄ (ψ OP H(ȳ)), OP ∈ {→, ↔}, head args distinct
/// variables drawn from x̄. Returns false if the shape does not match.
bool ParseDefinition(const Formula& conjunct, DefinitionalPlan::Definition* out) {
  Formula f = conjunct;
  out->all_vars.clear();
  while (f->kind() == FormulaKind::kForall) {
    out->all_vars.push_back(f->variable());
    f = f->children()[0];
  }
  if (f->kind() != FormulaKind::kImplies && f->kind() != FormulaKind::kIff) {
    return false;
  }
  out->iff = f->kind() == FormulaKind::kIff;
  const Formula& head = f->children()[1];
  if (head->kind() != FormulaKind::kAtom) return false;
  out->head = head->relation();
  out->head_vars.clear();
  std::set<Symbol> seen;
  for (const Term& t : head->terms()) {
    if (!t.is_variable()) return false;
    if (!seen.insert(t.symbol).second) return false;  // Repeated head variable.
    if (std::find(out->all_vars.begin(), out->all_vars.end(), t.symbol) ==
        out->all_vars.end()) {
      return false;  // Head variable not universally quantified here.
    }
    out->head_vars.push_back(t.symbol);
  }
  if (out->iff && out->head_vars.size() != out->all_vars.size()) {
    // ∀x̄ (ψ ↔ H(ȳ)) with ȳ ⊊ x̄ constrains H twice over the projected-away
    // variables; that is not a plain definition. Leave it to the generic engine.
    return false;
  }
  out->body = f->children()[0];
  return true;
}

}  // namespace

StatusOr<std::optional<DefinitionalPlan>> PlanDefinitional(const Formula& sentence,
                                                           const Database& db) {
  std::vector<Formula> conjuncts;
  FlattenAnd(sentence, &conjuncts);
  DefinitionalPlan plan;
  for (const Formula& c : conjuncts) {
    DefinitionalPlan::Definition def;
    if (!ParseDefinition(c, &def)) return std::optional<DefinitionalPlan>{};
    plan.definitions.push_back(std::move(def));
  }
  // Heads must be new, defined from old relations only, and not feed each other
  // (otherwise minimization is no longer relation-by-relation independent).
  std::set<Symbol> heads;
  std::map<Symbol, size_t> head_counts;
  for (const auto& def : plan.definitions) {
    if (db.schema().Contains(def.head)) return std::optional<DefinitionalPlan>{};
    heads.insert(def.head);
    ++head_counts[def.head];
  }
  for (const auto& def : plan.definitions) {
    StatusOr<Schema> body_schema = SchemaOf(def.body);
    if (!body_schema.ok()) return std::optional<DefinitionalPlan>{};
    for (const RelationDecl& d : body_schema->decls()) {
      if (!db.schema().Contains(d.symbol)) return std::optional<DefinitionalPlan>{};
    }
    // Body free variables must be covered by the quantifier prefix.
    std::set<Symbol> free = FreeVariables(def.body);
    for (Symbol v : free) {
      if (std::find(def.all_vars.begin(), def.all_vars.end(), v) ==
          def.all_vars.end()) {
        return std::optional<DefinitionalPlan>{};
      }
    }
    // An ↔-definition must be the unique definition of its head.
    if (def.iff && head_counts[def.head] > 1) return std::optional<DefinitionalPlan>{};
  }
  return std::optional<DefinitionalPlan>{std::move(plan)};
}

StatusOr<std::shared_ptr<const DefinitionalPlan>> RequireDefinitionalPlan(
    const Formula& sentence, const Database& db) {
  KBT_ASSIGN_OR_RETURN(std::optional<DefinitionalPlan> plan,
                       PlanDefinitional(sentence, db));
  if (!plan) {
    return Status::Unsupported("sentence is not definitional over σ(db)");
  }
  return std::make_shared<const DefinitionalPlan>(std::move(*plan));
}

StatusOr<Knowledgebase> MuDefinitional(const DefinitionalPlan& plan,
                                       const Database& db, const UpdateContext& ctx,
                                       const MuOptions& options, MuStats* stats) {
  (void)options;
  // Each head's least content is the union over its definitions of
  // π_headvars { x̄ ∈ B^|x̄| : db ⊨ ψ(x̄) }. Keeping db unchanged is always
  // possible (heads are new and bodies old), so Δ = ∅ and the fixed contents are
  // the unique stage-2 minimum.
  std::map<Symbol, Relation::Builder> head_tuples;
  for (const auto& def : plan.definitions) {
    KBT_ASSIGN_OR_RETURN(Relation answers,
                         EvaluateQuery(db, def.body, def.all_vars, ctx.domain));
    ++stats->candidates_examined;
    std::vector<size_t> projection;
    projection.reserve(def.head_vars.size());
    for (Symbol hv : def.head_vars) {
      size_t pos = static_cast<size_t>(
          std::find(def.all_vars.begin(), def.all_vars.end(), hv) -
          def.all_vars.begin());
      projection.push_back(pos);
    }
    auto [bucket, _] =
        head_tuples.try_emplace(def.head, Relation::Builder(projection.size()));
    bucket->second.Reserve(answers.size());
    if (projection.empty()) {
      for (size_t r = 0; r < answers.size(); ++r) bucket->second.Append(TupleView());
    } else {
      for (TupleView t : answers) {
        Value* row = bucket->second.AppendRow();
        for (size_t i = 0; i < projection.size(); ++i) row[i] = t[projection[i]];
      }
    }
  }
  // Heads are new w.r.t. σ(db), so their extended-base relations are empty and
  // the computed contents are pure-add deltas — the base is never copied.
  std::vector<RelationDelta> deltas;
  deltas.reserve(head_tuples.size());
  for (auto& [head, builder] : head_tuples) {
    std::optional<size_t> pos = ctx.schema.PositionOf(head);
    if (!pos) {
      return Status::NotFound("relation not in schema: " + NameOf(head));
    }
    RelationDelta d;
    d.pos = static_cast<uint32_t>(*pos);
    d.adds = builder.Build();
    d.dels = Relation(d.adds.arity());
    deltas.push_back(std::move(d));
  }
  stats->minimal_models = 1;
  std::vector<WorldOverlay> overlays;
  // The map iterates in symbol order, not position order; FromDeltas sorts.
  overlays.push_back(WorldOverlay::FromDeltas(std::move(deltas)));
  return Knowledgebase::FromBaseAndOverlays(
      std::make_shared<const Database>(ctx.extended_base), std::move(overlays));
}

namespace {

/// One head's answers over a block as they are collected: projected rows,
/// each with the worlds holding it, possibly repeated.
struct HeadRows {
  Symbol head;
  size_t arity = 0;
  std::vector<Value> values;
  std::vector<uint64_t> masks;

  const Value* row(size_t k) const { return values.data() + k * arity; }

  /// The distinct rows in tuple order, each with the OR of its masks.
  datalog::MaskedHead Merge() const {
    std::vector<uint32_t> order(masks.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return CompareValues(row(a), row(b), arity) < 0;
    });
    datalog::MaskedHead out{head, Relation(arity), {}};
    Relation::Builder tuples(arity);
    for (size_t i = 0; i < order.size(); ++i) {
      if (i > 0 &&
          CompareValues(row(order[i - 1]), row(order[i]), arity) == 0) {
        out.masks.back() |= masks[order[i]];
        continue;
      }
      tuples.Append(TupleView(row(order[i]), arity));
      out.masks.push_back(masks[order[i]]);
    }
    out.tuples = tuples.Build();  // Already sorted and distinct.
    return out;
  }
};

}  // namespace

Status MuDefinitionalBlock(const DefinitionalPlan& plan,
                           const Knowledgebase& kb,
                           const WorldDomains& domains, size_t begin,
                           const Schema& extended_schema,
                           const MuOptions& options, MuStats* stats,
                           std::span<WorldOverlay> out) {
  if (options.cancel != nullptr && options.cancel->Expired()) {
    return Status::DeadlineExceeded("μ cancelled before evaluation");
  }
  const size_t n = out.size();
  const std::span<const WorldOverlay> overlays(kb.overlays().data() + begin, n);
  std::vector<Symbol> read;
  for (const auto& def : plan.definitions) {
    KBT_ASSIGN_OR_RETURN(Schema body, SchemaOf(def.body));
    for (const RelationDecl& d : body.decls()) read.push_back(d.symbol);
  }
  const WorldBlock block(*kb.base(), overlays, domains, read);

  // Each head's content is the union over its definitions of the body's
  // answers projected onto the head variables, as in MuDefinitional.
  std::vector<HeadRows> rows;
  for (const auto& def : plan.definitions) {
    KBT_ASSIGN_OR_RETURN(MaskedAnswers answers,
                         EvaluateQueryMasked(block, def.body, def.all_vars));
    auto head = std::find_if(rows.begin(), rows.end(), [&](const HeadRows& h) {
      return h.head == def.head;
    });
    if (head == rows.end()) {
      rows.push_back(HeadRows{def.head, def.head_vars.size(), {}, {}});
      head = rows.end() - 1;
    }
    std::vector<size_t> projection;
    for (Symbol hv : def.head_vars) {
      projection.push_back(static_cast<size_t>(
          std::find(def.all_vars.begin(), def.all_vars.end(), hv) -
          def.all_vars.begin()));
    }
    for (size_t r = 0; r < answers.masks.size(); ++r) {
      for (size_t i : projection) {
        head->values.push_back(answers.values[r * answers.arity + i]);
      }
      head->masks.push_back(answers.masks[r]);
    }
  }
  std::vector<datalog::MaskedHead> heads;
  for (const HeadRows& h : rows) heads.push_back(h.Merge());
  KBT_RETURN_IF_ERROR(EmitBlock(kb, begin, extended_schema, heads, out));
  stats->used = MuStrategy::kDefinitional;
  stats->minimal_models += n;
  stats->candidates_examined += n * plan.definitions.size();
  return Status::OK();
}

}  // namespace kbt::internal
