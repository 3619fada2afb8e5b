#include <algorithm>
#include <array>
#include <bit>
#include <unordered_map>

#include "base/cancel.h"
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

StatusOr<std::shared_ptr<const DatalogPlan>> RequireDatalogPlan(
    const Formula& sentence, const Database& db) {
  KBT_ASSIGN_OR_RETURN(std::optional<DatalogPlan> plan,
                       PlanDatalog(sentence, db));
  if (!plan) {
    return Status::Unsupported(
        "sentence is not Datalog-restricted with new head predicates");
  }
  return std::make_shared<const DatalogPlan>(std::move(*plan));
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

Status EmitBlock(const Knowledgebase& kb, size_t begin,
                 const Schema& extended_schema,
                 const std::vector<datalog::MaskedHead>& heads,
                 std::span<WorldOverlay> out) {
  const size_t n = out.size();
  // Heads are new to σ(kb), so the extended schema appends them after every
  // σ(kb) position: in position order, their deltas follow the input
  // overlay's. `worlds` marks the block's worlds holding any of the head's
  // facts, and world w of them holds relation shared[of[w]]: worlds whose
  // bits over the head's tuples are equal hold one relation.
  struct Head {
    uint32_t pos;
    size_t arity;
    uint64_t worlds;
    std::vector<Relation> shared;
    std::array<uint8_t, 64> of;
  };
  std::vector<Head> at;
  at.reserve(heads.size());
  std::vector<uint64_t> classes;
  for (const datalog::MaskedHead& head : heads) {
    std::optional<size_t> pos = extended_schema.PositionOf(head.predicate);
    if (!pos) {
      return Status::NotFound("relation not in schema: " +
                              NameOf(head.predicate));
    }
    Head& h = at.emplace_back(Head{static_cast<uint32_t>(*pos),
                                   head.tuples.arity(), 0, {}, {}});
    for (uint64_t m : head.masks) h.worlds |= m;
    // The worlds split into classes of equal bits, tuple by tuple; each class
    // is a mask of worlds, at most 64 of them.
    classes.clear();
    if (h.worlds != 0) classes.push_back(h.worlds);
    for (uint64_t m : head.masks) {
      for (size_t c = 0, count = classes.size(); c < count; ++c) {
        const uint64_t held = classes[c] & m;
        if (held != 0 && held != classes[c]) {
          classes.push_back(classes[c] & ~m);
          classes[c] = held;
        }
      }
    }
    h.shared.reserve(classes.size());
    for (uint64_t worlds : classes) {
      const int w = std::countr_zero(worlds);
      size_t holds = 0;
      for (uint64_t m : head.masks) holds += (m >> w) & 1;
      if (holds == head.masks.size()) {
        h.shared.push_back(head.tuples);  // Every head fact: the block's own.
      } else {
        Relation::Builder adds(h.arity);
        adds.Reserve(holds);
        for (size_t k = 0; k < head.masks.size(); ++k) {
          if (((head.masks[k] >> w) & 1) != 0) adds.Append(head.tuples[k]);
        }
        h.shared.push_back(adds.Build());
      }
      for (; worlds != 0; worlds &= worlds - 1) {
        h.of[static_cast<size_t>(std::countr_zero(worlds))] =
            static_cast<uint8_t>(h.shared.size() - 1);
      }
    }
  }
  std::sort(at.begin(), at.end(),
            [](const Head& a, const Head& b) { return a.pos < b.pos; });
  for (size_t w = 0; w < n; ++w) {
    const std::vector<RelationDelta>& input = kb.overlays()[begin + w].deltas();
    size_t held = 0;
    for (const Head& h : at) held += (h.worlds >> w) & 1;
    std::vector<RelationDelta> deltas;
    deltas.reserve(input.size() + held);
    deltas.insert(deltas.end(), input.begin(), input.end());
    for (const Head& h : at) {
      if (((h.worlds >> w) & 1) == 0) continue;
      deltas.push_back(
          RelationDelta{h.pos, h.shared[h.of[w]], Relation(h.arity)});
    }
    out[w] = WorldOverlay::FromDeltas(std::move(deltas));
  }
  return Status::OK();
}

Status MuDatalogBlock(const DatalogPlan& plan, const Knowledgebase& kb,
                      size_t begin, const Schema& extended_schema,
                      const MuOptions& options, MuStats* stats,
                      std::span<WorldOverlay> out) {
  if (options.cancel != nullptr && options.cancel->Expired()) {
    return Status::DeadlineExceeded("μ cancelled before evaluation");
  }
  const size_t n = out.size();
  const uint64_t all = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  const Database& base = *kb.base();

  // The block's facts of every σ(kb) relation a body reads: each base row in
  // all of the block's worlds but those whose overlay deletes it, then each
  // overlay's adds in its own world. Other body relations are heads, or new
  // to σ(kb) and empty.
  std::unordered_map<Symbol, datalog::MaskedFacts> edb;
  for (const datalog::Rule& rule : plan.program.rules) {
    for (const datalog::Literal& literal : rule.body) {
      std::optional<size_t> pos = base.schema().PositionOf(literal.atom.predicate);
      if (!pos) continue;
      auto [it, fresh] = edb.try_emplace(literal.atom.predicate);
      if (!fresh) continue;
      datalog::MaskedFacts& facts = it->second;
      const Relation& rel = base.relation_at(*pos);
      facts.arity = rel.arity();
      const std::span<const Value> rows = rel.flat();
      facts.values.assign(rows.begin(), rows.end());
      facts.masks.assign(rel.size(), all);
      for (size_t w = 0; w < n; ++w) {
        const RelationDelta* d = kb.overlays()[begin + w].FindDelta(*pos);
        if (d == nullptr) continue;
        const uint64_t bit = uint64_t{1} << w;
        for (TupleView row : d->dels) facts.masks[rel.LowerBoundRow(row)] &= ~bit;
        for (TupleView row : d->adds) {
          facts.values.insert(facts.values.end(), row.begin(), row.end());
          facts.masks.push_back(bit);
        }
      }
    }
  }

  datalog::EvalStats estats;
  KBT_ASSIGN_OR_RETURN(
      std::vector<datalog::MaskedHead> heads,
      datalog::EvaluateMasked(plan.program, edb, all, options.cancel, &estats));
  KBT_RETURN_IF_ERROR(EmitBlock(kb, begin, extended_schema, heads, out));
  stats->used = MuStrategy::kDatalog;
  stats->minimal_models += n;
  stats->datalog_rounds += estats.rounds;
  stats->datalog_derived_tuples += estats.derived_tuples;
  return Status::OK();
}

}  // namespace kbt::internal
