#include "core/mu.h"

#include "core/mu_internal.h"
#include "exec/cnf_cache.h"
#include "exec/ground_cache.h"
#include "logic/analysis.h"

namespace kbt {

const char* MuStrategyName(MuStrategy strategy) {
  switch (strategy) {
    case MuStrategy::kAuto:
      return "auto";
    case MuStrategy::kReference:
      return "reference";
    case MuStrategy::kSat:
      return "sat";
    case MuStrategy::kDatalog:
      return "datalog";
    case MuStrategy::kDefinitional:
      return "definitional";
  }
  return "unknown";
}

void MuStats::MergeFrom(const MuStats& other) {
  minimal_models += other.minimal_models;
  candidates_examined += other.candidates_examined;
  ground_nodes += other.ground_nodes;
  ground_atoms += other.ground_atoms;
  sat_solve_calls += other.sat_solve_calls;
  sat_conflicts += other.sat_conflicts;
  sat_decisions += other.sat_decisions;
  sat_reused_levels += other.sat_reused_levels;
  sat_saved_propagations += other.sat_saved_propagations;
  sat_interrupt_checks += other.sat_interrupt_checks;
  sat_budget_trips += other.sat_budget_trips;
  datalog_rounds += other.datalog_rounds;
  datalog_derived_tuples += other.datalog_derived_tuples;
  used = other.used;  // Last strategy wins; τ reports per-call anyway.
}

StatusOr<Knowledgebase> Mu(const Formula& sentence, const Database& db,
                           const MuOptions& options, MuStats* stats) {
  const internal::MuExecContext no_exec;
  KBT_ASSIGN_OR_RETURN(internal::PreparedMu prep,
                       internal::PrepareMu(sentence, db, options, no_exec));
  return internal::RunPreparedMu(sentence, db, prep, options, stats, no_exec);
}

namespace internal {

namespace {

/// The grounding step of the SAT (`sat_route`) or reference strategy: the
/// one cache lookup plus the world's bits over ctx.extended_base.
StatusOr<MuGrounding> GroundForMu(const Formula& sentence,
                                  const UpdateContext& ctx,
                                  const MuOptions& options,
                                  const MuExecContext& exec, bool sat_route) {
  MuGrounding out;
  KBT_RETURN_IF_ERROR(
      LookUpGrounding(sentence, ctx.domain, options, exec, sat_route, &out));
  out.root = out.grounding->grounding.root;
  out.atoms = &out.grounding->mentioned;
  KBT_ASSIGN_OR_RETURN(out.bits, AtomBits(*out.grounding, ctx.extended_base,
                                          /*key_layout=*/false));
  return out;
}

}  // namespace

Status LookUpGrounding(const Formula& sentence,
                       const std::vector<Value>& domain,
                       const MuOptions& options, const MuExecContext& exec,
                       bool sat_route, MuGrounding* out) {
  GrounderOptions gopts;
  gopts.max_nodes = options.max_ground_nodes;
  // The grounding — and, with a CnfCache, the whole Tseitin encoding — is a
  // pure function of (φ, domain): worlds sharing an active domain reuse one
  // immutable circuit plus one frozen encoded prefix.
  if (sat_route && exec.cnf_cache != nullptr) {
    KBT_ASSIGN_OR_RETURN(out->frozen,
                         exec.cnf_cache->GetOrBuild(sentence, domain, gopts,
                                                    exec.ground_cache));
    out->grounding = out->frozen->grounding;
  } else if (exec.ground_cache != nullptr) {
    KBT_ASSIGN_OR_RETURN(out->grounding, exec.ground_cache->GetOrGround(
                                             sentence, domain, gopts));
  } else {
    // Uncached, but wrapped in the same immutable CachedGrounding shape, so
    // the strategies always borrow the precomputed mentioned-atom set.
    KBT_ASSIGN_OR_RETURN(out->grounding,
                         exec::MakeCachedGrounding(sentence, domain, gopts));
  }
  // A split grounding has no prefix (exec/cnf_cache.h); a whole-root run on
  // it encodes from scratch.
  if (!out->grounding->components.empty()) out->frozen.reset();
  return Status::OK();
}

StatusOr<std::vector<uint64_t>> AtomBits(const exec::CachedGrounding& g,
                                         const Database& extended_base,
                                         bool key_layout) {
  const std::vector<int>& mentioned = g.mentioned;
  std::vector<uint64_t> bits(
      key_layout ? g.key_words : (mentioned.size() + 63) / 64, 0);
  for (size_t k = 0; k < mentioned.size(); ++k) {
    const GroundAtom atom = g.grounding.atoms.AtomOf(mentioned[k]);
    const Relation* r = extended_base.FindRelation(atom.relation);
    if (r == nullptr) {
      return Status::NotFound("relation not in schema: " + NameOf(atom.relation));
    }
    if (!r->Contains(atom.tuple)) continue;
    const size_t bit =
        key_layout ? g.key_bit[static_cast<size_t>(mentioned[k])] : k;
    bits[bit / 64] |= uint64_t{1} << (bit % 64);
  }
  return bits;
}

bool MuGrounding::whole() const { return atoms == &grounding->mentioned; }

StatusOr<TauStrategyPlan> PlanTauStrategies(const Formula& sentence,
                                            const Database& probe) {
  TauStrategyPlan plan;
  plan.sentence_is_ground = IsGround(sentence);
  KBT_ASSIGN_OR_RETURN(auto datalog, PlanDatalog(sentence, probe));
  if (datalog) {
    plan.datalog = std::make_shared<const DatalogPlan>(std::move(*datalog));
    return plan;  // Mirrors kAuto: Datalog wins before definitional is tried.
  }
  KBT_ASSIGN_OR_RETURN(auto definitional, PlanDefinitional(sentence, probe));
  if (definitional) {
    plan.definitional =
        std::make_shared<const DefinitionalPlan>(std::move(*definitional));
  }
  return plan;
}

MuStrategy ResolveAuto(const TauStrategyPlan& plan) {
  // Theorem 4.7: ground updates touch at most |φ| atoms — reference
  // enumeration is polynomial in the database. Very wide ground sentences
  // fall through to the rest of the plan (PreparedMu::auto_fallback).
  if (plan.sentence_is_ground) return MuStrategy::kReference;
  if (plan.datalog != nullptr) return MuStrategy::kDatalog;
  if (plan.definitional != nullptr) return MuStrategy::kDefinitional;
  return MuStrategy::kSat;
}

StatusOr<PreparedMu> PrepareMu(const Formula& sentence, const Database& db,
                               const MuOptions& options,
                               const MuExecContext& exec,
                               const PreparedPart* known) {
  // Cheapest place to honor an already-expired request: before grounding.
  // The SAT strategy additionally polls the token inside the search.
  if (options.cancel != nullptr && options.cancel->Expired()) {
    return Status::DeadlineExceeded("μ cancelled before evaluation");
  }
  PreparedMu prep;
  if (known != nullptr && exec.extended_schema != nullptr) {
    prep.ctx.schema = *exec.extended_schema;
    prep.ctx.domain = *known->domain;
    KBT_ASSIGN_OR_RETURN(prep.ctx.extended_base, db.ExtendTo(prep.ctx.schema));
  } else {
    KBT_ASSIGN_OR_RETURN(prep.ctx, MakeUpdateContext(sentence, db));
  }

  prep.strategy = options.strategy;
  switch (options.strategy) {
    case MuStrategy::kReference:
    case MuStrategy::kSat:
      break;
    case MuStrategy::kDatalog: {
      KBT_ASSIGN_OR_RETURN(prep.datalog, RequireDatalogPlan(sentence, db));
      return prep;
    }
    case MuStrategy::kDefinitional: {
      KBT_ASSIGN_OR_RETURN(prep.definitional,
                           RequireDefinitionalPlan(sentence, db));
      return prep;
    }
    case MuStrategy::kAuto: {
      // Automatic dispatch, cheapest applicable first. τ resolves the plan
      // once per call — it depends only on (φ, schema), and all worlds share
      // a schema; a plain Mu() call plans for itself.
      TauStrategyPlan own_plan;
      const TauStrategyPlan* plan = exec.plan;
      if (plan == nullptr) {
        KBT_ASSIGN_OR_RETURN(own_plan, PlanTauStrategies(sentence, db));
        plan = &own_plan;
      }
      prep.datalog = plan->datalog;
      prep.definitional = plan->definitional;
      prep.strategy = ResolveAuto(*plan);
      prep.auto_fallback = prep.strategy == MuStrategy::kReference;
      if (prep.strategy == MuStrategy::kDatalog ||
          prep.strategy == MuStrategy::kDefinitional) {
        return prep;
      }
      break;
    }
  }
  if (known != nullptr) {
    prep.ground = *known->ground;
    return prep;
  }
  KBT_ASSIGN_OR_RETURN(
      prep.ground, GroundForMu(sentence, prep.ctx, options, exec,
                               prep.strategy == MuStrategy::kSat));
  return prep;
}

StatusOr<Knowledgebase> RunPreparedMu(const Formula& sentence,
                                      const Database& db,
                                      const PreparedMu& prep,
                                      const MuOptions& options, MuStats* stats,
                                      const MuExecContext& exec) {
  MuStats local;
  MuStats* out = stats != nullptr ? stats : &local;
  const UpdateContext& ctx = prep.ctx;
  switch (prep.strategy) {
    case MuStrategy::kReference: {
      StatusOr<Knowledgebase> result =
          MuReference(db, ctx, prep.ground, options, out);
      if (result.ok() || !prep.auto_fallback ||
          result.status().code() != StatusCode::kResourceExhausted) {
        out->used = MuStrategy::kReference;
        return result;
      }
      break;  // kAuto goes on with the rest of its plan.
    }
    case MuStrategy::kSat:
      out->used = MuStrategy::kSat;
      return MuSat(db, ctx, prep.ground, options, out, exec);
    case MuStrategy::kDatalog:
      out->used = MuStrategy::kDatalog;
      return MuDatalog(*prep.datalog, db, ctx, out);
    case MuStrategy::kDefinitional:
      out->used = MuStrategy::kDefinitional;
      return MuDefinitional(*prep.definitional, db, ctx, options, out);
    case MuStrategy::kAuto:
      return Status::Internal("μ strategy left unresolved");
  }
  // The fast paths evaluate the whole sentence, so a component of a split
  // grounding falls back to SAT on the component.
  if (!prep.ground.whole()) {
    out->used = MuStrategy::kSat;
    return MuSat(db, ctx, prep.ground, options, out, exec);
  }
  if (prep.datalog != nullptr) {
    out->used = MuStrategy::kDatalog;
    return MuDatalog(*prep.datalog, db, ctx, out);
  }
  if (prep.definitional != nullptr) {
    out->used = MuStrategy::kDefinitional;
    return MuDefinitional(*prep.definitional, db, ctx, options, out);
  }
  KBT_ASSIGN_OR_RETURN(MuGrounding sat_ground,
                       GroundForMu(sentence, ctx, options, exec,
                                   /*sat_route=*/true));
  out->used = MuStrategy::kSat;
  return MuSat(db, ctx, sat_ground, options, out, exec);
}

}  // namespace internal

}  // namespace kbt
