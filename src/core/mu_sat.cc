#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

#include "core/mu_internal.h"
#include "core/winslett_order.h"
#include "exec/cnf_cache.h"
#include "exec/ground_cache.h"
#include "exec/scratch.h"
#include "sat/solver.h"
#include "sat/tseitin.h"

namespace kbt::internal {

namespace {

using sat::Lit;
using sat::MkLit;
using sat::SolveResult;
using sat::Solver;
using sat::Var;

/// One enumerated minimal model, kept for dominance checks against later
/// descent fixpoints (blocked models are invisible to the solver, so later
/// fixpoints must be re-validated against these). The model is held as its
/// overlay against ctx.extended_base — never flattened: dominance checks run
/// on deltas (CompareClosenessOverlays) and the final knowledgebase adopts
/// the overlays directly.
struct FoundModel {
  WorldOverlay overlay;
  std::vector<int> flipped_old;  ///< Mentioned old atoms deviating from db.
  std::vector<int> true_new;     ///< Mentioned new atoms set to true.
};

/// The μ/SAT enumerator parks its materializer — and thereby the group/merge
/// buffers inside it — in the per-worker WorldScratch between worlds.
struct MaterializerSlot : exec::WorldScratch::Attachment {
  ModelMaterializer materializer;
};

/// The CDCL enumeration engine. One solver and one incremental Tseitin encoder
/// live for the entire run: the minimization descent pushes activation-guarded
/// constraints and the enumeration pushes blocking clauses into the same clause
/// arena, and nothing is ever ground or encoded twice. Per-world tables and
/// loop scratch live in a WorldScratch — the executor's per-worker pool when
/// provided, a local one otherwise — so consecutive worlds on one worker reuse
/// warm buffers instead of reallocating ~15 vectors per world.
class SatEnumerator {
 public:
  SatEnumerator(const Database& db, const UpdateContext& ctx,
                const MuOptions& options, MuStats* stats,
                const MuExecContext& exec)
      : db_(db),
        ctx_(ctx),
        options_(options),
        stats_(stats),
        exec_(exec),
        s_(exec.scratch != nullptr ? *exec.scratch : own_scratch_) {}

  StatusOr<Knowledgebase> Run(const MuGrounding& ground) {
    // The grounding — and, with a CnfCache, the frozen encoded prefix — is
    // shared by every world with this active domain (GroundForMu looked it
    // up); only the per-world defaults are recomputed. μ runs on ground.root
    // and its atoms: the whole root, or one component of it.
    const exec::FrozenCnf* frozen = ground.frozen.get();
    const Grounding* g = &ground.grounding->grounding;
    const int root = ground.root;
    mentioned_ = ground.atoms;
    stats_->ground_nodes = g->circuit.size();
    atoms_ = &g->atoms;

    if (root == g->circuit.FalseNode()) {
      return Knowledgebase(ctx_.schema);  // No models at all.
    }

    // A worker-pool solver is reused across worlds: Reset (or the frozen-fork
    // overwrite below) keeps its allocated arena and watcher capacity but
    // restores the exact target state, so the enumeration below is
    // bit-identical to one over a new Solver.
    if (exec_.solver != nullptr) {
      solver_ = exec_.solver;
    } else {
      solver_ = &own_solver_;
    }

    stats_->ground_atoms = mentioned_->size();
    s_.atom_var.assign(g->atoms.size(), -1);
    const std::vector<sat::Lit>* node_lits = nullptr;
    std::vector<sat::Lit> own_node_lits;
    if (frozen != nullptr) {
      // Fork from the shared prefix: bulk-copy the encoded solver state and
      // the atom → var table instead of replaying the Tseitin clauses. The
      // snapshot was taken at exactly the point the encoder below would reach,
      // so everything layered on top (phases, descent guards, blocking
      // clauses) behaves identically.
      solver_->InitFromFrozen(frozen->prefix);
      std::copy(frozen->atom_var.begin(), frozen->atom_var.end(),
                s_.atom_var.begin());
      node_lits = &frozen->node_lit;
    } else {
      if (exec_.solver != nullptr) solver_->Reset();
      // The encoder's work all happens here — after this block the descent and
      // enumeration only add plain clauses to the live solver — so only its
      // node-literal table (for phase seeding) outlives the block.
      sat::TseitinEncoder encoder(&g->circuit, solver_);
      encoder.Assert(root);
      for (int atom_id : *mentioned_) {
        s_.atom_var[static_cast<size_t>(atom_id)] = encoder.VarForAtom(atom_id);
      }
      own_node_lits = encoder.node_lits();
      node_lits = &own_node_lits;
    }
    // Arm per-request limits now — Reset/InitFromFrozen above cleared any —
    // and guarantee they are disarmed when Run unwinds: the solver may be a
    // session solver that outlives this request's (stack-allocated) token.
    if (options_.cancel != nullptr || options_.sat_conflict_budget != 0) {
      solver_->SetInterrupt(options_.cancel);
      solver_->SetBudget(options_.sat_conflict_budget, 0);
    }
    struct LimitsGuard {
      Solver* s;
      ~LimitsGuard() { s->ClearLimits(); }
    } limits_guard{solver_};
    s_.default_value.assign(g->atoms.size(), 0);
    s_.value.assign(g->atoms.size(), 0);
    s_.old_atoms.clear();
    s_.new_atoms.clear();
    s_.retired_acts.clear();
    for (size_t k = 0; k < mentioned_->size(); ++k) {
      int atom_id = (*mentioned_)[k];
      s_.default_value[static_cast<size_t>(atom_id)] = ground.Bit(k);
      bool is_old = IsOldAtom(g->atoms.AtomOf(atom_id), db_);
      (is_old ? s_.old_atoms : s_.new_atoms).push_back(atom_id);
    }

    // Branch toward the default world first — atoms *and* Tseitin gates. The
    // gate phases are each node's value under the default assignment, so the
    // first probe's decisions on gate variables steer the same direction as
    // the atoms below them instead of forcing arbitrary subcircuit values;
    // first models start near the Winslett minimum and descents are short.
    // One circuit evaluation per world; later solves re-seed only the atoms
    // (SeedDefaultPhases), gates then following their saved model phases.
    auto default_of = [&](int atom_id) {
      return s_.default_value[static_cast<size_t>(atom_id)] != 0;
    };
    g->circuit.EvaluateAllInto(root, default_of, &s_.node_value);
    for (size_t id = 0; id < node_lits->size(); ++id) {
      sat::Lit lit = (*node_lits)[id];
      int8_t value = s_.node_value[id];
      if (lit == sat::TseitinEncoder::kUnencoded || value == 0) continue;
      solver_->SetPhase(sat::VarOf(lit), (value == 2) != sat::IsNegated(lit));
    }

    // Delta materialization is lazy: the first enumerated model goes through
    // the specification-shaped MaterializeModel, and the group/tuple-order
    // precomputation is only paid once a second model proves the run is a real
    // enumeration. The materializer object itself persists in the worker
    // scratch so its buffers stay warm across worlds.
    auto* slot = dynamic_cast<MaterializerSlot*>(s_.attachment.get());
    if (slot == nullptr) {
      s_.attachment = std::make_unique<MaterializerSlot>();
      slot = static_cast<MaterializerSlot*>(s_.attachment.get());
    }
    materializer_ = &slot->materializer;
    models_built_ = 0;

    std::vector<FoundModel> minimal;
    while (true) {
      // Each enumeration probe starts from the default phases too: the next
      // unblocked model found is near-minimal, keeping its descent short.
      SeedDefaultPhases();
      FlushRetiredGuards();
      SolveResult probe = Solve(no_assumptions_);
      if (probe == SolveResult::kUnknown) return DeadlineStatus();
      if (probe == SolveResult::kUnsat) break;
      KBT_ASSIGN_OR_RETURN(FoundModel candidate, Descend());
      // The descent fixpoint is minimal unless a previously reported minimal model
      // (now blocked, hence invisible) lies strictly below it.
      bool dominated = false;
      for (const FoundModel& m : minimal) {
        if (CompareClosenessOverlays(m.overlay, candidate.overlay,
                                     db_.schema().size()) ==
            Closeness::kCloser) {
          dominated = true;
          break;
        }
      }
      bool exhausted = BlockAbove(candidate);
      if (!dominated) minimal.push_back(std::move(candidate));
      if (exhausted) break;
      if (minimal.size() > options_.max_models) {
        return Status::ResourceExhausted("μ produced more than " +
                                         std::to_string(options_.max_models) +
                                         " minimal models");
      }
    }

    stats_->minimal_models = minimal.size();
    if (minimal.empty()) return Knowledgebase(ctx_.schema);
    std::vector<WorldOverlay> overlays;
    overlays.reserve(minimal.size());
    for (FoundModel& m : minimal) overlays.push_back(std::move(m.overlay));
    return Knowledgebase::FromBaseAndOverlays(
        std::make_shared<const Database>(ctx_.extended_base),
        std::move(overlays));
  }

 private:
  /// Blocks the candidate and everything ≥_db it. Since the candidate is strictly
  /// above some reported minimal model whenever it is not itself minimal, every
  /// member of its up-set is safely non-minimal (or the candidate itself), so this
  /// is sound for dominated fixpoints too. Two constructs:
  ///
  ///  (a) flips(M) ⊋ flips(c) ⟹ c <_db M by stage 1, regardless of new atoms:
  ///      one clause per old atom b ∉ flips(c):  (⋁_{a∈flips(c)} keep(a)) ∨ keep(b);
  ///  (b) flips(M) ⊇ flips(c) ∧ newtrue(M) ⊇ newtrue(c) ⟹ c ≤_db M:
  ///      the cone clause (⋁_{a∈flips(c)} keep(a)) ∨ (⋁_{n∈newtrue(c)} ¬n).
  ///
  /// Returns true when the whole space is now blocked (the candidate was the
  /// global minimum), letting the caller stop immediately.
  bool BlockAbove(const FoundModel& candidate) {
    std::vector<Lit>& clause = s_.clause_lits;
    std::vector<Lit>& core = s_.core_lits;
    core.clear();
    for (int a : candidate.flipped_old) core.push_back(KeepLit(a));
    // (a) Forbid strict flip supersets.
    if (core.empty()) {
      // flips(c) = ∅: every construct-(a) clause degenerates to the unit
      // keep(b), so assert them as one batch of root facts — one propagation
      // round instead of |old_atoms| clause insertions. Same fixpoint, ~20%
      // of the delta-workload runtime on PR 7's profile.
      clause.clear();
      for (int b : s_.old_atoms) clause.push_back(KeepLit(b));
      solver_->AssertUnitsAtRoot(clause);
    } else {
      for (int b : s_.old_atoms) {
        if (std::binary_search(candidate.flipped_old.begin(),
                               candidate.flipped_old.end(), b)) {
          continue;
        }
        clause.assign(core.begin(), core.end());
        clause.push_back(KeepLit(b));
        solver_->AddClause(clause);
      }
    }
    // (b) The cone clause.
    clause.assign(core.begin(), core.end());
    for (int n : candidate.true_new) {
      clause.push_back(MkLit(AtomVar(n), /*negated=*/true));
    }
    if (clause.empty()) return true;  // Candidate is the global minimum.
    solver_->AddClause(clause);
    return false;
  }

  Var AtomVar(int a) { return s_.atom_var[static_cast<size_t>(a)]; }
  bool DefaultOf(int a) { return s_.default_value[static_cast<size_t>(a)] != 0; }

  /// Literal asserting atom `a` has its default value.
  Lit KeepLit(int a) { return MkLit(AtomVar(a), /*negated=*/!DefaultOf(a)); }
  /// Literal asserting atom `a` equals `value`.
  Lit ValueLit(int a, bool value) { return MkLit(AtomVar(a), !value); }

  bool ModelValueOf(int a) { return solver_->ModelValue(AtomVar(a)); }

  SolveResult Solve(const std::vector<Lit>& assumptions) {
    SolveResult r = solver_->Solve(assumptions);
    stats_->sat_solve_calls = solver_->stats().solve_calls;
    stats_->sat_conflicts = solver_->stats().conflicts;
    stats_->sat_decisions = solver_->stats().decisions;
    stats_->sat_reused_levels = solver_->stats().reused_assumption_levels;
    stats_->sat_saved_propagations = solver_->stats().saved_propagations;
    stats_->sat_interrupt_checks = solver_->stats().interrupt_checks;
    stats_->sat_budget_trips = solver_->stats().budget_trips;
    if (r == SolveResult::kSat) ++stats_->candidates_examined;
    return r;
  }

  /// The kUnknown unwind: the solver already backtracked to a usable root
  /// (AbortSolve); μ reports the abandoned request as a deadline error.
  Status DeadlineStatus() const {
    return Status::DeadlineExceeded(
        options_.cancel != nullptr && options_.cancel->Expired()
            ? "μ cancelled during SAT search"
            : "μ SAT conflict budget exhausted");
  }

  void SnapshotModel() {
    for (int a : *mentioned_) {
      s_.value[static_cast<size_t>(a)] = ModelValueOf(a) ? 1 : 0;
    }
  }

  /// Re-seeds every mentioned atom's branching phase toward its default value.
  /// Phase saving drags later solves toward the previous model; before each
  /// descent/enumeration solve we point the search back at the Winslett
  /// minimum instead, so one refinement step reverts many deviations at once
  /// rather than one per solve. Gate variables keep their saved phases — after
  /// the first model those are consistent gate values, and re-biasing them
  /// toward the (φ-violating) default world was measured to lengthen probes.
  /// Which fixpoint a descent reaches may differ, but μ enumerates *all*
  /// minimal models either way — the result set (and hence τ) is unchanged,
  /// only the number of solver calls drops. (Phases of atoms assigned at
  /// retained assumption levels are dead until those levels are undone.)
  void SeedDefaultPhases() {
    for (int a : *mentioned_) {
      solver_->SetPhase(AtomVar(a), DefaultOf(a));
    }
  }

  /// Retires a descent guard. Asserting ¬act now would add a unit — a root
  /// fact — and surrender the whole retained assumption trail, so the unit
  /// waits until the next enumeration probe (which starts from level 0
  /// regardless); meanwhile the activation variable is biased false so the
  /// dead guard cannot force its keeps.
  void RetireGuard(Var act) {
    s_.retired_acts.push_back(act);
    solver_->SetPhase(act, false);
  }

  /// Asserts the deferred guard retirements.
  void FlushRetiredGuards() {
    for (Var act : s_.retired_acts) {
      solver_->AddClause({MkLit(act, true)});
    }
    s_.retired_acts.clear();
  }

  /// Two-stage greedy descent from the solver's current model to a ≤_db fixpoint.
  /// Each refinement step adds one activation-guarded clause (retired afterwards
  /// by asserting ¬act) to the live solver — no re-grounding, no re-encoding, and
  /// no per-step containers beyond the reused scratch buffers.
  ///
  /// The per-step assumption vectors are ordered canonically — atom pins in the
  /// stable old_atoms/new_atoms order first, the (always-fresh) activation
  /// literal last — so consecutive solves share a maximal assumption prefix and
  /// the solver's trail saving re-enqueues only the delta: stage 2
  /// re-propagates its |old| pins exactly once across all its steps.
  StatusOr<FoundModel> Descend() {
    SnapshotModel();
    auto val = [&](int a) { return s_.value[static_cast<size_t>(a)] != 0; };

    std::vector<int>& deviating = s_.deviating;
    std::vector<Lit>& guard = s_.clause_lits;
    std::vector<Lit>& assumptions = s_.assumption_lits;

    // Stage 1: shrink the old-atom flip set until no model has a strictly smaller
    // one. Pinning every unflipped atom keeps Δ(M') ⊆ Δ(M) componentwise; the
    // activation-guarded clause forces at least one flip to revert.
    while (true) {
      deviating.clear();
      for (int a : s_.old_atoms) {
        if (val(a) != DefaultOf(a)) deviating.push_back(a);
      }
      if (deviating.empty()) break;
      Var act = solver_->NewVar();
      guard.clear();
      guard.push_back(MkLit(act, true));
      for (int a : deviating) guard.push_back(KeepLit(a));
      solver_->AddClause(guard);
      assumptions.clear();
      for (int a : s_.old_atoms) {
        if (val(a) == DefaultOf(a)) assumptions.push_back(KeepLit(a));
      }
      assumptions.push_back(MkLit(act));
      SeedDefaultPhases();
      SolveResult r = Solve(assumptions);
      RetireGuard(act);
      if (r == SolveResult::kUnknown) return DeadlineStatus();
      if (r == SolveResult::kUnsat) break;
      SnapshotModel();
    }

    // Stage 2: with the Δ-vector fixed (old atoms fully pinned), shrink the
    // true set of new atoms.
    while (true) {
      deviating.clear();
      for (int a : s_.new_atoms) {
        if (val(a)) deviating.push_back(a);
      }
      if (deviating.empty()) break;
      Var act = solver_->NewVar();
      guard.clear();
      guard.push_back(MkLit(act, true));
      for (int a : deviating) guard.push_back(ValueLit(a, false));
      solver_->AddClause(guard);
      assumptions.clear();
      for (int a : s_.old_atoms) assumptions.push_back(ValueLit(a, val(a)));
      for (int a : s_.new_atoms) {
        if (!val(a)) assumptions.push_back(ValueLit(a, false));
      }
      assumptions.push_back(MkLit(act));
      SeedDefaultPhases();
      SolveResult r = Solve(assumptions);
      RetireGuard(act);
      if (r == SolveResult::kUnknown) return DeadlineStatus();
      if (r == SolveResult::kUnsat) break;
      SnapshotModel();
    }

    // The descent is over: the retained assumption trail has no next solve to
    // serve (what follows is BlockAbove's clause burst and an assumption-free
    // probe), so surrender it now and let those AddClauses take the level-0
    // fast path instead of trail-aware placement.
    solver_->BacktrackToRoot();

    FoundModel out;
    for (int a : s_.old_atoms) {
      if (val(a) != DefaultOf(a)) out.flipped_old.push_back(a);
    }
    for (int a : s_.new_atoms) {
      if (val(a)) out.true_new.push_back(a);
    }
    // Lazy delta materialization: the specification path covers the (common)
    // single-model run; the precomputed merge path takes over from the second
    // model on, rebuilt in the scratch-parked materializer with warm buffers.
    // Both paths emit the model as an overlay — O(delta), no base copy.
    std::function<bool(int)> value_fn = val;
    if (models_built_ == 0) {
      KBT_ASSIGN_OR_RETURN(
          out.overlay,
          MaterializeOverlayModel(ctx_, *atoms_, *mentioned_, value_fn));
    } else {
      if (models_built_ == 1) {
        KBT_RETURN_IF_ERROR(materializer_->Rebuild(ctx_, *atoms_, *mentioned_));
      }
      KBT_ASSIGN_OR_RETURN(out.overlay,
                           materializer_->MaterializeOverlay(value_fn));
    }
    ++models_built_;
    return out;
  }

  const Database& db_;
  const UpdateContext& ctx_;
  const MuOptions& options_;
  MuStats* stats_;
  const MuExecContext& exec_;

  /// Fallback solver when the executor supplies none.
  Solver own_solver_;
  /// The solver in use: exec_.solver (reset) or &own_solver_.
  Solver* solver_ = nullptr;
  const AtomIndex* atoms_ = nullptr;
  /// Borrowed from the CachedGrounding held alive by Run.
  const std::vector<int>* mentioned_ = nullptr;
  /// Fallback scratch when the executor supplies none (plain Mu() calls).
  exec::WorldScratch own_scratch_;
  /// Per-world tables and loop scratch: exec_.scratch (worker-pooled) or
  /// own_scratch_.
  exec::WorldScratch& s_;
  /// Scratch-parked materializer, lazily rebuilt on the second model.
  ModelMaterializer* materializer_ = nullptr;
  /// Models materialized so far in this run (drives materializer laziness).
  size_t models_built_ = 0;
  const std::vector<Lit> no_assumptions_;
};

}  // namespace

StatusOr<Knowledgebase> MuSat(const Database& db, const UpdateContext& ctx,
                              const MuGrounding& ground,
                              const MuOptions& options, MuStats* stats,
                              const MuExecContext& exec) {
  SatEnumerator enumerator(db, ctx, options, stats, exec);
  return enumerator.Run(ground);
}

}  // namespace kbt::internal
