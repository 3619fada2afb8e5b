#ifndef KBT_SAT_SOLVER_H_
#define KBT_SAT_SOLVER_H_

/// \file
/// A from-scratch CDCL SAT solver over a flat clause arena.
///
/// The knowledgebase update operator μ (eq. 9) needs to enumerate Winslett-minimal
/// models of a grounded sentence — a co-NP-hard task (Theorem 4.2). The engine in
/// core/mu_sat.cc drives this solver through a descend-and-block loop; the solver
/// itself is a conventional conflict-driven clause-learning design:
///
///   * two-watched-literal propagation with blocker literals,
///   * first-UIP conflict analysis with learned clauses,
///   * VSIDS-style variable activities with phase saving,
///   * Luby restarts,
///   * LBD-aware learned-clause database reduction with arena garbage collection,
///   * solving under assumptions with trail saving (for the minimization
///     descent): assumption decision levels persist across Solve() calls, and
///     the next call backtracks only to the first level whose assumption
///     differs from the previous vector,
///   * incremental clause addition between Solve() calls (for blocking clauses and
///     activation-literal-guarded constraints), and
///   * forking from a frozen prefix (Freeze / InitFromFrozen): the encoded state
///     of a shared CNF is snapshotted once and bulk-copied into per-world
///     solvers instead of replaying AddClause per world (see exec/cnf_cache).
///
/// Every clause — problem and learned — lives in one contiguous `uint32_t` arena
/// addressed by `ClauseRef` offsets; there is no per-clause heap allocation. A
/// clause is laid out as a header word (size, learned flag), then for learned
/// clauses an activity word and an LBD word, then the literals. Long
/// descend-and-block runs stay bounded: when the learned store outgrows its
/// budget, glue clauses (LBD ≤ 2) are kept and the rest is halved worst-first
/// (highest LBD, then lowest activity), compacting the arena in place.
///
/// No exceptions, no dependencies; deterministic given the same sequence of calls.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "base/cancel.h"

namespace kbt::sat {

/// A 0-based propositional variable.
using Var = int;

/// A literal: 2*var for the positive phase, 2*var+1 for the negative phase.
using Lit = int;

inline Lit MkLit(Var v, bool negated = false) { return 2 * v + (negated ? 1 : 0); }
inline Var VarOf(Lit l) { return l >> 1; }
inline bool IsNegated(Lit l) { return (l & 1) != 0; }
inline Lit Negate(Lit l) { return l ^ 1; }

/// kUnknown is returned only when a budget or interrupt token is armed (see
/// SetBudget/SetInterrupt) and trips mid-search: the question was abandoned,
/// not answered. The solver backtracks to the root and stays fully usable —
/// clauses, activities and learned state are all intact.
enum class SolveResult { kSat, kUnsat, kUnknown };

/// Truth value of a variable or literal: kUndef until assigned.
enum class LBool : int8_t { kFalse = -1, kUndef = 0, kTrue = 1 };

/// Offset of a clause in the solver's arena (index of its header word).
using ClauseRef = uint32_t;
inline constexpr ClauseRef kNoClause = 0xFFFFFFFFu;

/// The CDCL solver. Create variables with NewVar, add clauses, then Solve —
/// possibly repeatedly, with further clauses and different assumptions in between.
class Solver {
 private:
  /// A watch-list entry: the clause plus a cached "blocker" literal from the
  /// clause. If the blocker is already true the clause is satisfied and the
  /// arena is never touched — the common case during propagation. (Declared
  /// up front so Frozen below can flatten watch lists.)
  struct Watcher {
    ClauseRef cref;
    Lit blocker;
  };

  /// A branch-order heap node; see the heap comment further down. (Declared up
  /// front so Frozen below can snapshot the heap.)
  struct HeapNode {
    double activity;
    Var var;
    friend bool operator<(const HeapNode& a, const HeapNode& b) {
      return a.activity < b.activity ||
             (a.activity == b.activity && a.var < b.var);
    }
  };

 public:
  Solver() = default;
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Cumulative search statistics.
  struct Stats {
    uint64_t conflicts = 0;
    uint64_t decisions = 0;
    uint64_t propagations = 0;
    uint64_t restarts = 0;
    uint64_t learned_clauses = 0;
    uint64_t solve_calls = 0;
    uint64_t db_reductions = 0;      ///< Learned-DB reduction passes.
    uint64_t learned_deleted = 0;    ///< Learned clauses dropped by reduction.
    uint64_t minimized_literals = 0; ///< Literals shrunk from learned clauses
                                     ///< by self-subsumption in Analyze.
    uint64_t glue_clauses = 0;       ///< Learned clauses born with LBD ≤ 2
                                     ///< (kept unconditionally by ReduceDb).
    uint64_t reused_assumption_levels = 0;  ///< Assumption decision levels
                                            ///< retained across Solve calls.
    uint64_t saved_propagations = 0;        ///< Trail literals kept enqueued by
                                            ///< reuse instead of re-propagated.
    uint64_t interrupt_checks = 0;  ///< Times the interrupt token was polled
                                    ///< (0 unless SetInterrupt armed one).
    uint64_t budget_trips = 0;      ///< Solve calls abandoned as kUnknown by a
                                    ///< budget or interrupt trip.
  };

  /// An immutable snapshot of a solver at decision level 0 with no assumptions
  /// outstanding: the clause arena, flattened watch lists, root-level trail and
  /// per-variable tables, byte for byte. Taken once per shared CNF prefix and
  /// bulk-copied into per-world solvers via InitFromFrozen — the "encode once,
  /// fork many" primitive behind exec/cnf_cache. Opaque outside Solver except
  /// for the size accessors.
  class Frozen {
   public:
    Frozen() = default;

    /// Number of variables in the frozen state.
    int num_vars() const { return static_cast<int>(values.size()); }
    /// Stored clauses (problem + learned) in the frozen state.
    size_t num_clauses() const { return num_problem_clauses + learned.size(); }
    /// Arena words occupied by the frozen state.
    size_t arena_words() const { return arena.size(); }
    /// Heap bytes the snapshot holds, from its arrays' capacities.
    size_t HeapBytes() const;

   private:
    friend class Solver;
    bool ok = true;
    std::vector<uint32_t> arena;
    size_t wasted_words = 0;
    size_t num_problem_clauses = 0;
    std::vector<ClauseRef> learned;
    size_t reduce_limit = 0;
    uint32_t clause_act_inc = 0;
    /// Watch lists flattened into one buffer: list `i` is
    /// watch_data[watch_begin[i], watch_begin[i + 1]).
    std::vector<uint32_t> watch_begin;
    std::vector<Watcher> watch_data;
    std::vector<LBool> values;
    std::vector<int> levels;
    std::vector<ClauseRef> reasons;
    std::vector<Lit> trail;
    size_t propagate_head = 0;
    std::vector<double> activity;
    double var_inc = 1.0;
    std::vector<HeapNode> heap;
    std::vector<int> heap_pos;
    std::vector<int8_t> saved_phase;
    std::vector<int8_t> model;
    Stats frozen_stats;
  };

  /// Snapshots the complete solver state into `out`. Must be called at decision
  /// level 0: before any Solve, or after BacktrackToRoot (a Solve under
  /// assumptions leaves its assumption levels on the trail). The snapshot is
  /// independent of this solver and may be shared read-only across threads.
  void Freeze(Frozen* out) const;

  /// Replaces this solver's entire state with a copy of `frozen`, reusing the
  /// allocated capacity of the arena, watcher lists and per-variable tables
  /// (the fork analogue of Reset). Given the same subsequent sequence of
  /// NewVar/AddClause/SetPhase/Solve calls, a forked solver behaves
  /// bit-identically to the solver the snapshot was taken from — and hence to a
  /// fresh solver that replayed the frozen prefix clause by clause.
  void InitFromFrozen(const Frozen& frozen);

  /// Creates a fresh variable and returns it.
  Var NewVar();

  /// Returns the solver to its freshly-constructed state while keeping the
  /// allocated capacity of the clause arena, watcher lists and per-variable
  /// tables. The τ executor's per-worker solver pools reuse one Solver across
  /// many worlds: given the same sequence of NewVar/AddClause/Solve calls, a
  /// reset solver behaves bit-identically to a fresh one.
  void Reset();

  /// Number of variables created.
  int num_vars() const { return static_cast<int>(values_.size()); }

  /// Adds a clause (a disjunction of literals over existing variables).
  /// Tautologies are silently dropped; duplicate literals are merged; the empty
  /// clause makes the solver permanently unsatisfiable. Returns false iff the
  /// solver is already known unsatisfiable after this call. The literals are
  /// copied into the arena; the caller's buffer is not retained.
  ///
  /// After a Solve under assumptions the solver sits at a non-zero decision
  /// level (the retained assumption trail); AddClause then backtracks only as
  /// far as the new clause requires — to level 0 for a unit, otherwise to the
  /// deepest level at which the clause has two non-false literals to watch
  /// (blocking clauses over already-released atoms typically cost no
  /// backtracking at all). Only root-level assignments are used to simplify
  /// the clause, so the stored clause is the same one the level-0 path would
  /// store.
  bool AddClause(std::span<const Lit> lits);
  bool AddClause(std::initializer_list<Lit> lits) {
    return AddClause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  bool AddClause(const std::vector<Lit>& lits) {
    return AddClause(std::span<const Lit>(lits.data(), lits.size()));
  }

  /// Asserts a batch of unit clauses (root facts) in one propagation round.
  /// Equivalent to adding each unit via AddClause — unit propagation reaches
  /// the same fixpoint regardless of enqueue order — but skips the per-clause
  /// sort/simplify machinery and runs propagation once instead of once per
  /// unit. Surrenders any retained assumption trail (a unit is a root fact).
  /// Returns false iff the solver becomes (or already was) unsatisfiable.
  bool AssertUnitsAtRoot(std::span<const Lit> units);
  bool AssertUnitsAtRoot(const std::vector<Lit>& units) {
    return AssertUnitsAtRoot(std::span<const Lit>(units.data(), units.size()));
  }

  /// Solves the current formula under the given assumption literals. Further
  /// clauses may be added afterwards and Solve called again. Trail saving: the
  /// assumption levels stay on the trail when Solve returns, and the next call
  /// adopts the prefix its vector shares with this one instead of re-deciding
  /// and re-propagating it — per-solve cost follows the assumption *delta*.
  /// Callers that keep a stable prefix (the μ descent orders its atom pins
  /// canonically and puts activation literals last) re-enqueue only what
  /// changed. An assumption-free Solve starts and ends at decision level 0.
  SolveResult Solve(const std::vector<Lit>& assumptions = {});

  /// Undoes every decision level, including retained assumption levels. Call
  /// when the retained trail has no further value — e.g. the μ descent just
  /// ended and only assumption-free probes or bulk clause additions follow —
  /// so later AddClause calls take the cheap level-0 path instead of
  /// computing trail-aware placements. No-op at level 0.
  void BacktrackToRoot() {
    CancelUntil(0);
    last_assumptions_.clear();
  }

  /// Value of `v` in the model found by the last Solve (which must have returned
  /// kSat and not been followed by AddClause).
  bool ModelValue(Var v) const { return model_[static_cast<size_t>(v)] == 1; }

  /// Sets the branching phase hint for `v` (the polarity tried first). Phase
  /// saving overwrites it as search proceeds. The μ engine seeds old atoms with
  /// their database value and new atoms with false, so first models start near
  /// the Winslett minimum and descents are short.
  void SetPhase(Var v, bool value) {
    saved_phase_[static_cast<size_t>(v)] = value ? 1 : -1;
  }

  /// True once the clause set has been proven unsatisfiable outright (no
  /// assumptions involved).
  bool inconsistent() const { return !ok_; }

  /// Number of clauses currently in the arena (problem + learned; units are
  /// propagated at the root level and never stored).
  size_t num_clauses() const { return num_problem_clauses_ + learned_.size(); }
  /// Number of stored problem (non-learned) clauses.
  size_t num_problem_clauses() const { return num_problem_clauses_; }
  /// Number of learned clauses currently retained.
  size_t num_learned_clauses() const { return learned_.size(); }

  /// Arms cumulative search budgets, measured from the current stats: after
  /// `conflicts` further conflicts (or `propagations` further propagations; 0 =
  /// unlimited for either) any in-flight or later Solve returns kUnknown at
  /// its next check point, backtracked to the root and reusable. Budgets are
  /// per-request state, not configuration: Reset and InitFromFrozen clear
  /// them (callers arm them after forking). With no budget and no interrupt
  /// armed the search is bit-identical to a limit-free solver.
  void SetBudget(uint64_t conflicts, uint64_t propagations);
  /// Arms a cooperative interrupt token, polled at Solve entry and every 64th
  /// conflict; an expired token makes Solve return kUnknown exactly like a
  /// budget trip. `token` must outlive the armed solves; nullptr disarms.
  void SetInterrupt(const CancelToken* token);
  /// Disarms budgets and the interrupt token.
  void ClearLimits();
  /// Conflicts remaining before the armed conflict budget trips (0 when no
  /// conflict budget is armed or it has already tripped).
  uint64_t conflicts_until_budget() const {
    return conflict_limit_ > stats_.conflicts ? conflict_limit_ - stats_.conflicts
                                              : 0;
  }

  /// Learned-clause budget before the next DB reduction (grows geometrically
  /// afterwards). Lower it to bound memory on long descend-and-block runs — or
  /// in tests, to exercise reduction on small instances.
  void SetReduceLimit(size_t limit) { reduce_limit_ = limit; }
  /// Arena words in use (headers + activities + literals).
  size_t arena_words() const { return arena_.size() - wasted_words_; }

  const Stats& stats() const { return stats_; }

 private:
  // Arena clause layout, starting at the ClauseRef offset:
  //   word 0          — header: (size << 3) | forward << 2 | deleted << 1 | learned
  //   word 1          — activity (learned clauses only)
  //   word 2          — LBD: distinct decision levels at learn time (learned only)
  //   next `size`     — the literals
  // During garbage collection the header of a surviving clause is overwritten
  // with (new_offset << 3) | forward so watcher lists and reason pointers can be
  // remapped in one pass.
  uint32_t SizeOf(ClauseRef c) const { return arena_[c] >> 3; }
  bool IsLearned(ClauseRef c) const { return (arena_[c] & 0x1) != 0; }
  uint32_t LitsOffset(ClauseRef c) const { return c + 1 + (IsLearned(c) ? 2 : 0); }
  Lit* LitsOf(ClauseRef c) {
    return reinterpret_cast<Lit*>(arena_.data() + LitsOffset(c));
  }
  const Lit* LitsOf(ClauseRef c) const {
    return reinterpret_cast<const Lit*>(arena_.data() + LitsOffset(c));
  }
  uint32_t& ActivityOf(ClauseRef c) { return arena_[c + 1]; }
  uint32_t ActivityOf(ClauseRef c) const { return arena_[c + 1]; }
  uint32_t LbdOf(ClauseRef c) const { return arena_[c + 2]; }

  LBool ValueOf(Lit l) const {
    LBool v = values_[static_cast<size_t>(VarOf(l))];
    if (v == LBool::kUndef) return LBool::kUndef;
    bool is_true = (v == LBool::kTrue) != IsNegated(l);
    return is_true ? LBool::kTrue : LBool::kFalse;
  }

  ClauseRef AllocClause(std::span<const Lit> lits, bool learned, uint32_t lbd = 0);
  /// AddClause tail above the root (a retained assumption trail): `lits` is
  /// the root-simplified clause (≥ 2 literals, no root-true literal).
  /// Backtracks to the deepest level with two watchable literals and attaches.
  bool AddClauseAboveRoot();
  /// Distinct decision levels among the literals (computed before backtracking,
  /// while levels_ still reflects the conflict).
  uint32_t ComputeLbd(std::span<const Lit> lits);
  void Enqueue(Lit l, ClauseRef reason);
  ClauseRef Propagate();
  void Attach(ClauseRef cref);
  void CancelUntil(int level);
  int DecisionLevel() const { return static_cast<int>(trail_lim_.size()); }
  void NewDecisionLevel() { trail_lim_.push_back(static_cast<int>(trail_.size())); }
  void Analyze(ClauseRef confl, std::vector<Lit>* learned, int* bt_level);
  /// True when `q` can be dropped from the learned clause because its reason's
  /// other literals are all already in the clause (seen) or fixed at level 0 —
  /// one self-subsumption resolution step that only shrinks the clause.
  bool LitRedundant(Lit q) const;
  void BumpVar(Var v);
  void BumpClause(ClauseRef cref);
  void DecayActivities();
  Var PickBranchVar();
  // Indexed binary max-heap of (activity, var) nodes (MiniSat-style): every
  // variable is in the heap at most once (heap_pos_ tracks its slot, -1 =
  // absent), bumps update the node's cached activity and sift it up in place,
  // and backtracking re-inserts unassigned vars. The previous lazy heap pushed
  // a fresh pair per bump and per unassignment; descend-and-block runs
  // ballooned it with stale duplicates and PickBranchVar dominated μ's profile
  // (≈half the runtime). The activity is cached inside the node so sifts
  // compare contiguous memory instead of chasing activity_. Ties break toward
  // the larger variable id — the order the lazy pair-heap popped — keeping the
  // known-good branching trajectory; deterministic either way.
  void HeapSwap(size_t i, size_t j);
  void HeapSiftUp(size_t i);
  void HeapSiftDown(size_t i);
  void HeapInsert(Var v);
  /// True when `cref` is the reason of a currently assigned variable (such
  /// clauses must survive DB reduction).
  bool IsReason(ClauseRef cref) const;
  /// Drops the low-activity half of the learned clauses and compacts the arena.
  /// Must be called at decision level 0.
  void ReduceDb();
  /// Compacts the arena in place, dropping deleted clauses and remapping watcher
  /// lists, reason pointers and the learned list.
  void GarbageCollect();
  static int LubyUnit(int i);

  /// True when an armed budget or interrupt token has tripped. `poll_token`
  /// gates the (comparatively expensive) token check so the hot loop polls it
  /// only every 64th conflict; budget comparisons run on every call.
  bool Interrupted(bool poll_token);
  /// Abandons the current Solve: backtracks to the root, clears the saved
  /// assumption trail (it no longer matches an answered question), bumps
  /// budget_trips and returns kUnknown. The solver stays fully usable.
  SolveResult AbortSolve();

  bool ok_ = true;
  /// The clause arena. All clauses, problem and learned, live here.
  std::vector<uint32_t> arena_;
  size_t wasted_words_ = 0;        ///< Words occupied by deleted clauses.
  size_t num_problem_clauses_ = 0;
  std::vector<ClauseRef> learned_;  ///< Refs of retained learned clauses.
  /// Learned-clause budget before the next ReduceDb; grows geometrically.
  size_t reduce_limit_ = 2048;
  /// Per-bump clause activity increment; grows ~1.5% per conflict so earlier
  /// bumps decay geometrically relative to recent ones.
  uint32_t clause_act_inc_ = 16;

  /// watches_[lit] = watchers to inspect when `lit` becomes true (they watch ¬lit).
  std::vector<std::vector<Watcher>> watches_;
  std::vector<LBool> values_;
  std::vector<int> levels_;
  std::vector<ClauseRef> reasons_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t propagate_head_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<HeapNode> heap_;  // Indexed max-heap of candidate branch vars.
  std::vector<int> heap_pos_;   // Var → slot in heap_, -1 when absent.
  std::vector<int8_t> saved_phase_;

  /// Cooperative limits (SetBudget/SetInterrupt). limits_active_ is the single
  /// off-path guard: when false, Solve takes no limit branches at all and the
  /// search is bit-identical to a limit-free build. The limits are absolute
  /// stats thresholds (0 = unlimited), cleared by Reset/InitFromFrozen.
  bool limits_active_ = false;
  uint64_t conflict_limit_ = 0;
  uint64_t propagation_limit_ = 0;
  const CancelToken* interrupt_ = nullptr;
  /// The previous Solve's assumption vector: compared against the next call's
  /// vector to find the shared prefix whose decision levels — still on the
  /// trail — can be kept.
  std::vector<Lit> last_assumptions_;

  std::vector<int8_t> model_;
  std::vector<int8_t> seen_;  // Scratch for Analyze.
  std::vector<Lit> add_tmp_;  // Scratch for AddClause (sort/dedup buffer).
  std::vector<Lit> learned_tmp_;  // Scratch for the learned clause in Solve.
  std::vector<int8_t> level_seen_;  // Scratch for ComputeLbd (per-level marks).
  std::vector<int> level_seen_clear_;  // Levels to unmark after ComputeLbd.

  Stats stats_;
};

}  // namespace kbt::sat

#endif  // KBT_SAT_SOLVER_H_
