#include "sat/solver.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <type_traits>

namespace kbt::sat {

// Header layout (see solver.h): size << 3 | forward << 2 | deleted << 1 | learned.
namespace {
constexpr uint32_t kHdrLearned = 0x1;
constexpr uint32_t kHdrDeleted = 0x2;
constexpr uint32_t kHdrForward = 0x4;
}  // namespace

Var Solver::NewVar() {
  Var v = num_vars();
  values_.push_back(LBool::kUndef);
  levels_.push_back(0);
  reasons_.push_back(kNoClause);
  activity_.push_back(0.0);
  saved_phase_.push_back(0);
  seen_.push_back(0);
  // After Reset the watch lists persist (cleared, capacity kept); only grow
  // the outer vector past the high-water mark.
  if (watches_.size() < values_.size() * 2) {
    watches_.emplace_back();
    watches_.emplace_back();
  }
  heap_pos_.push_back(-1);
  HeapInsert(v);
  return v;
}

void Solver::HeapSwap(size_t i, size_t j) {
  std::swap(heap_[i], heap_[j]);
  heap_pos_[static_cast<size_t>(heap_[i].var)] = static_cast<int>(i);
  heap_pos_[static_cast<size_t>(heap_[j].var)] = static_cast<int>(j);
}

void Solver::HeapSiftUp(size_t i) {
  while (i > 0) {
    size_t parent = (i - 1) / 2;
    if (!(heap_[parent] < heap_[i])) break;
    HeapSwap(parent, i);
    i = parent;
  }
}

void Solver::HeapSiftDown(size_t i) {
  for (;;) {
    size_t best = i;
    size_t l = 2 * i + 1, r = 2 * i + 2;
    if (l < heap_.size() && heap_[best] < heap_[l]) best = l;
    if (r < heap_.size() && heap_[best] < heap_[r]) best = r;
    if (best == i) return;
    HeapSwap(i, best);
    i = best;
  }
}

void Solver::HeapInsert(Var v) {
  if (heap_pos_[static_cast<size_t>(v)] >= 0) return;  // Already queued.
  heap_pos_[static_cast<size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(HeapNode{activity_[static_cast<size_t>(v)], v});
  HeapSiftUp(heap_.size() - 1);
}

void Solver::Reset() {
  ok_ = true;
  arena_.clear();
  wasted_words_ = 0;
  num_problem_clauses_ = 0;
  learned_.clear();
  reduce_limit_ = 2048;
  clause_act_inc_ = 16;
  for (std::vector<Watcher>& wl : watches_) wl.clear();
  values_.clear();
  levels_.clear();
  reasons_.clear();
  trail_.clear();
  trail_lim_.clear();
  propagate_head_ = 0;
  activity_.clear();
  var_inc_ = 1.0;
  heap_.clear();
  heap_pos_.clear();
  saved_phase_.clear();
  model_.clear();
  seen_.clear();
  level_seen_.clear();
  level_seen_clear_.clear();
  last_assumptions_.clear();
  ClearLimits();  // Budgets are per-request state, like the assumptions.
  stats_ = Stats();
}

void Solver::Freeze(Frozen* out) const {
  assert(DecisionLevel() == 0 && "Freeze only between Solve calls");
  out->ok = ok_;
  out->arena = arena_;
  out->wasted_words = wasted_words_;
  out->num_problem_clauses = num_problem_clauses_;
  out->learned = learned_;
  out->reduce_limit = reduce_limit_;
  out->clause_act_inc = clause_act_inc_;
  // Flatten the watch lists: one contiguous Watcher buffer plus offsets, so
  // InitFromFrozen restores each list with a bulk assign instead of growing
  // per-entry. Only the lists of live variables are meaningful.
  size_t lists = values_.size() * 2;
  out->watch_begin.clear();
  out->watch_begin.reserve(lists + 1);
  out->watch_data.clear();
  for (size_t i = 0; i < lists; ++i) {
    out->watch_begin.push_back(static_cast<uint32_t>(out->watch_data.size()));
    out->watch_data.insert(out->watch_data.end(), watches_[i].begin(),
                           watches_[i].end());
  }
  out->watch_begin.push_back(static_cast<uint32_t>(out->watch_data.size()));
  out->values = values_;
  out->levels = levels_;
  out->reasons = reasons_;
  out->trail = trail_;
  out->propagate_head = propagate_head_;
  out->activity = activity_;
  out->var_inc = var_inc_;
  out->heap = heap_;
  out->heap_pos = heap_pos_;
  out->saved_phase = saved_phase_;
  out->model = model_;
  out->frozen_stats = stats_;
}

size_t Solver::Frozen::HeapBytes() const {
  auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return bytes(arena) + bytes(learned) + bytes(watch_begin) +
         bytes(watch_data) + bytes(values) + bytes(levels) + bytes(reasons) +
         bytes(trail) + bytes(activity) + bytes(heap) + bytes(heap_pos) +
         bytes(saved_phase) + bytes(model);
}

void Solver::InitFromFrozen(const Frozen& frozen) {
  ok_ = frozen.ok;
  arena_.assign(frozen.arena.begin(), frozen.arena.end());
  wasted_words_ = frozen.wasted_words;
  num_problem_clauses_ = frozen.num_problem_clauses;
  learned_.assign(frozen.learned.begin(), frozen.learned.end());
  reduce_limit_ = frozen.reduce_limit;
  clause_act_inc_ = frozen.clause_act_inc;
  // A default-constructed Frozen (never frozen into — e.g. the cached prefix
  // of a ⊥-rooted grounding) has an empty offset table, not the one-sentinel
  // table Freeze writes; treat it as zero lists rather than underflowing.
  size_t lists = frozen.watch_begin.empty() ? 0 : frozen.watch_begin.size() - 1;
  if (watches_.size() < lists) watches_.resize(lists);
  for (size_t i = 0; i < lists; ++i) {
    watches_[i].assign(frozen.watch_data.begin() + frozen.watch_begin[i],
                       frozen.watch_data.begin() + frozen.watch_begin[i + 1]);
  }
  // A reused worker solver may carry lists beyond the frozen variable count;
  // NewVar only appends past the high-water mark, so clear the tail.
  for (size_t i = lists; i < watches_.size(); ++i) watches_[i].clear();
  values_.assign(frozen.values.begin(), frozen.values.end());
  levels_.assign(frozen.levels.begin(), frozen.levels.end());
  reasons_.assign(frozen.reasons.begin(), frozen.reasons.end());
  trail_.assign(frozen.trail.begin(), frozen.trail.end());
  trail_lim_.clear();
  propagate_head_ = frozen.propagate_head;
  activity_.assign(frozen.activity.begin(), frozen.activity.end());
  var_inc_ = frozen.var_inc;
  heap_.assign(frozen.heap.begin(), frozen.heap.end());
  heap_pos_.assign(frozen.heap_pos.begin(), frozen.heap_pos.end());
  saved_phase_.assign(frozen.saved_phase.begin(), frozen.saved_phase.end());
  model_.assign(frozen.model.begin(), frozen.model.end());
  seen_.assign(frozen.values.size(), 0);
  level_seen_clear_.clear();
  last_assumptions_.clear();  // The frozen state has no retained trail.
  ClearLimits();  // Callers arm per-request budgets after forking.
  stats_ = frozen.frozen_stats;
}

void Solver::SetBudget(uint64_t conflicts, uint64_t propagations) {
  conflict_limit_ = conflicts == 0 ? 0 : stats_.conflicts + conflicts;
  propagation_limit_ =
      propagations == 0 ? 0 : stats_.propagations + propagations;
  limits_active_ =
      conflict_limit_ != 0 || propagation_limit_ != 0 || interrupt_ != nullptr;
}

void Solver::SetInterrupt(const CancelToken* token) {
  interrupt_ = token;
  limits_active_ =
      conflict_limit_ != 0 || propagation_limit_ != 0 || interrupt_ != nullptr;
}

void Solver::ClearLimits() {
  limits_active_ = false;
  conflict_limit_ = 0;
  propagation_limit_ = 0;
  interrupt_ = nullptr;
}

bool Solver::Interrupted(bool poll_token) {
  if (conflict_limit_ != 0 && stats_.conflicts >= conflict_limit_) return true;
  if (propagation_limit_ != 0 && stats_.propagations >= propagation_limit_) {
    return true;
  }
  if (poll_token && interrupt_ != nullptr) {
    ++stats_.interrupt_checks;
    if (interrupt_->Expired()) return true;
  }
  return false;
}

SolveResult Solver::AbortSolve() {
  CancelUntil(0);
  // The retained trail no longer corresponds to an answered question; a later
  // Solve must not reuse it as if the abandoned search had completed.
  last_assumptions_.clear();
  ++stats_.budget_trips;
  return SolveResult::kUnknown;
}

ClauseRef Solver::AllocClause(std::span<const Lit> lits, bool learned,
                              uint32_t lbd) {
  assert(lits.size() >= 2);
  ClauseRef cref = static_cast<ClauseRef>(arena_.size());
  uint32_t size = static_cast<uint32_t>(lits.size());
  arena_.push_back((size << 3) | (learned ? kHdrLearned : 0));
  if (learned) {
    arena_.push_back(clause_act_inc_);  // Initial activity.
    arena_.push_back(lbd);
    learned_.push_back(cref);
  } else {
    ++num_problem_clauses_;
  }
  for (Lit l : lits) arena_.push_back(static_cast<uint32_t>(l));
  return cref;
}

uint32_t Solver::ComputeLbd(std::span<const Lit> lits) {
  if (level_seen_.size() < trail_lim_.size() + 1) {
    level_seen_.resize(trail_lim_.size() + 1, 0);
  }
  uint32_t lbd = 0;
  for (Lit l : lits) {
    int level = levels_[static_cast<size_t>(VarOf(l))];
    if (!level_seen_[static_cast<size_t>(level)]) {
      level_seen_[static_cast<size_t>(level)] = 1;
      level_seen_clear_.push_back(level);
      ++lbd;
    }
  }
  for (int level : level_seen_clear_) level_seen_[static_cast<size_t>(level)] = 0;
  level_seen_clear_.clear();
  return lbd;
}

bool Solver::AddClause(std::span<const Lit> lits) {
  if (!ok_) return false;
  const bool above_root = DecisionLevel() > 0;
  add_tmp_.assign(lits.begin(), lits.end());
  std::sort(add_tmp_.begin(), add_tmp_.end());
  add_tmp_.erase(std::unique(add_tmp_.begin(), add_tmp_.end()), add_tmp_.end());
  // Drop tautologies; remove false literals; detect satisfied clauses. The
  // surviving literals are compacted in place — no allocation per clause.
  // Above the root (a retained assumption trail) only level-0 assignments may
  // simplify: deeper values are revocable search state, not facts, so the
  // stored clause is exactly the one the level-0 path would store.
  size_t keep = 0;
  for (size_t i = 0; i < add_tmp_.size(); ++i) {
    Lit l = add_tmp_[i];
    if (i + 1 < add_tmp_.size() && add_tmp_[i + 1] == Negate(l) &&
        VarOf(add_tmp_[i + 1]) == VarOf(l)) {
      return true;  // l and ¬l adjacent after sorting: tautology.
    }
    LBool v = ValueOf(l);
    if (v != LBool::kUndef && above_root &&
        levels_[static_cast<size_t>(VarOf(l))] != 0) {
      add_tmp_[keep++] = l;  // Assigned above the root: keep verbatim.
      continue;
    }
    if (v == LBool::kTrue) return true;  // Satisfied at top level.
    if (v == LBool::kFalse) continue;    // Falsified at top level: drop literal.
    add_tmp_[keep++] = l;
  }
  add_tmp_.resize(keep);
  if (add_tmp_.empty()) {
    ok_ = false;
    return false;
  }
  if (add_tmp_.size() == 1) {
    // A unit is a root fact: surrender any retained trail and propagate it at
    // level 0.
    CancelUntil(0);
    Enqueue(add_tmp_[0], kNoClause);
    if (Propagate() != kNoClause) ok_ = false;
    return ok_;
  }
  if (arena_.empty()) arena_.reserve(1024);
  if (DecisionLevel() > 0) return AddClauseAboveRoot();
  Attach(AllocClause(add_tmp_, /*learned=*/false));
  return true;
}

bool Solver::AssertUnitsAtRoot(std::span<const Lit> units) {
  if (!ok_) return false;
  CancelUntil(0);
  last_assumptions_.clear();
  for (Lit l : units) {
    LBool v = ValueOf(l);
    if (v == LBool::kTrue) continue;  // Already a root fact.
    if (v == LBool::kFalse) {
      ok_ = false;
      return false;
    }
    Enqueue(l, kNoClause);
  }
  if (Propagate() != kNoClause) ok_ = false;
  return ok_;
}

bool Solver::AddClauseAboveRoot() {
  // Backtrack only to the level the new clause can watch at: a literal's
  // falsification level is the level it was assigned false at (+∞ when
  // non-false); after backtracking to one level below the second-deepest
  // falsification level, the two deepest literals are both non-false and
  // become the watches. Two already-non-false literals cost no backtracking.
  constexpr int kInf = std::numeric_limits<int>::max();
  size_t i1 = 0, i2 = 1;
  int f1 = -1, f2 = -1;
  for (size_t i = 0; i < add_tmp_.size(); ++i) {
    int f = ValueOf(add_tmp_[i]) == LBool::kFalse
                ? levels_[static_cast<size_t>(VarOf(add_tmp_[i]))]
                : kInf;
    if (f > f1) {
      f2 = f1;
      i2 = i1;
      f1 = f;
      i1 = i;
    } else if (f > f2) {
      f2 = f;
      i2 = i;
    }
  }
  if (f2 != kInf) CancelUntil(f2 - 1);  // f2 ≥ 1: root-false literals dropped.
  std::swap(add_tmp_[0], add_tmp_[i1]);
  if (i2 == 0) i2 = i1;
  std::swap(add_tmp_[1], add_tmp_[i2]);
  Attach(AllocClause(add_tmp_, /*learned=*/false));
  return true;
}

void Solver::Attach(ClauseRef cref) {
  const Lit* lits = LitsOf(cref);
  assert(SizeOf(cref) >= 2);
  watches_[static_cast<size_t>(Negate(lits[0]))].push_back({cref, lits[1]});
  watches_[static_cast<size_t>(Negate(lits[1]))].push_back({cref, lits[0]});
}

void Solver::Enqueue(Lit l, ClauseRef reason) {
  assert(ValueOf(l) == LBool::kUndef);
  Var v = VarOf(l);
  values_[static_cast<size_t>(v)] = IsNegated(l) ? LBool::kFalse : LBool::kTrue;
  levels_[static_cast<size_t>(v)] = DecisionLevel();
  reasons_[static_cast<size_t>(v)] = reason;
  trail_.push_back(l);
}

ClauseRef Solver::Propagate() {
  while (propagate_head_ < trail_.size()) {
    Lit p = trail_[propagate_head_++];
    ++stats_.propagations;
    std::vector<Watcher>& watch_list = watches_[static_cast<size_t>(p)];
    size_t keep = 0;
    for (size_t i = 0; i < watch_list.size(); ++i) {
      Watcher w = watch_list[i];
      // Blocker fast path: a cached literal from the clause; if it is already
      // true the clause is satisfied without touching the arena.
      if (ValueOf(w.blocker) == LBool::kTrue) {
        watch_list[keep++] = w;
        continue;
      }
      ClauseRef cref = w.cref;
      Lit* lits = LitsOf(cref);
      uint32_t size = SizeOf(cref);
      Lit false_lit = Negate(p);
      // Normalize: the falsified watched literal goes to slot 1.
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      assert(lits[1] == false_lit);
      Lit first = lits[0];
      if (first != w.blocker && ValueOf(first) == LBool::kTrue) {
        watch_list[keep++] = {cref, first};  // Satisfied; refresh the blocker.
        continue;
      }
      // Look for a replacement watch.
      bool moved = false;
      for (uint32_t j = 2; j < size; ++j) {
        if (ValueOf(lits[j]) != LBool::kFalse) {
          std::swap(lits[1], lits[j]);
          watches_[static_cast<size_t>(Negate(lits[1]))].push_back({cref, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // No replacement: unit or conflicting.
      watch_list[keep++] = {cref, first};
      if (ValueOf(first) == LBool::kFalse) {
        // Conflict. Keep the remaining watchers, restore list, report.
        for (size_t j = i + 1; j < watch_list.size(); ++j) {
          watch_list[keep++] = watch_list[j];
        }
        watch_list.resize(keep);
        propagate_head_ = trail_.size();
        return cref;
      }
      Enqueue(first, cref);
    }
    watch_list.resize(keep);
  }
  return kNoClause;
}

void Solver::CancelUntil(int level) {
  if (DecisionLevel() <= level) return;
  int target = trail_lim_[static_cast<size_t>(level)];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= target; --i) {
    Var v = VarOf(trail_[static_cast<size_t>(i)]);
    saved_phase_[static_cast<size_t>(v)] =
        values_[static_cast<size_t>(v)] == LBool::kTrue ? 1 : -1;
    values_[static_cast<size_t>(v)] = LBool::kUndef;
    reasons_[static_cast<size_t>(v)] = kNoClause;
    HeapInsert(v);
  }
  trail_.resize(static_cast<size_t>(target));
  trail_lim_.resize(static_cast<size_t>(level));
  propagate_head_ = trail_.size();
}

void Solver::BumpVar(Var v) {
  double& a = activity_[static_cast<size_t>(v)];
  a += var_inc_;
  if (a > 1e100) {
    // Uniform rescale preserves relative order, so the heap stays valid; the
    // cached node activities rescale along.
    for (double& x : activity_) x *= 1e-100;
    for (HeapNode& n : heap_) n.activity *= 1e-100;
    var_inc_ *= 1e-100;
  }
  // Activity only grows: the entry can only need to move toward the root.
  int pos = heap_pos_[static_cast<size_t>(v)];
  if (pos >= 0) {
    heap_[static_cast<size_t>(pos)].activity = a;
    HeapSiftUp(static_cast<size_t>(pos));
  }
}

void Solver::BumpClause(ClauseRef cref) {
  if (!IsLearned(cref)) return;
  uint32_t& a = ActivityOf(cref);
  a += clause_act_inc_;
  if (a > (uint32_t{1} << 30)) {
    // Rescale every learned activity and the increment; relative order (and
    // the recency weighting) is preserved.
    for (ClauseRef c : learned_) ActivityOf(c) >>= 16;
    clause_act_inc_ = std::max(clause_act_inc_ >> 16, uint32_t{16});
  }
}

void Solver::DecayActivities() {
  var_inc_ /= 0.95;
  // Growing the increment ~1.5% per conflict decays older clause bumps
  // geometrically (MiniSat-style), so ReduceDb ranks by recent usefulness
  // rather than lifetime bump count.
  clause_act_inc_ += clause_act_inc_ >> 6;
}

void Solver::Analyze(ClauseRef confl, std::vector<Lit>* learned, int* bt_level) {
  learned->clear();
  learned->push_back(0);  // Slot for the asserting (1UIP) literal.
  int counter = 0;
  Lit p = -1;
  size_t trail_index = trail_.size();
  std::vector<Var> to_clear;

  ClauseRef reason = confl;
  do {
    assert(reason != kNoClause);
    BumpClause(reason);  // Useful clauses survive DB reduction longer.
    const Lit* lits = LitsOf(reason);
    uint32_t size = SizeOf(reason);
    // On the first pass p == -1 and all literals are examined; afterwards the
    // asserting literal at lits[0] equals p and is skipped.
    for (uint32_t j = (p == -1 ? 0 : 1); j < size; ++j) {
      Lit q = lits[j];
      Var v = VarOf(q);
      if (seen_[static_cast<size_t>(v)] || levels_[static_cast<size_t>(v)] == 0) {
        continue;
      }
      seen_[static_cast<size_t>(v)] = 1;
      to_clear.push_back(v);
      BumpVar(v);
      if (levels_[static_cast<size_t>(v)] == DecisionLevel()) {
        ++counter;
      } else {
        learned->push_back(q);
      }
    }
    // Select the next trail literal marked seen.
    while (trail_index > 0 && !seen_[static_cast<size_t>(VarOf(trail_[trail_index - 1]))]) {
      --trail_index;
    }
    assert(trail_index > 0);
    --trail_index;
    p = trail_[trail_index];
    Var pv = VarOf(p);
    seen_[static_cast<size_t>(pv)] = 0;
    reason = reasons_[static_cast<size_t>(pv)];
    --counter;
  } while (counter > 0);
  (*learned)[0] = Negate(p);

  // Learned-clause minimization by self-subsumption: a literal whose reason's
  // other literals are all already in the clause (or level 0) is resolved away
  // without adding anything. Removed literals keep their seen_ mark for the
  // rest of the loop, which closes the check transitively — a literal may be
  // judged redundant through other removed literals (Sörensson–Biere local
  // minimization).
  size_t kept = 1;
  for (size_t i = 1; i < learned->size(); ++i) {
    Lit q = (*learned)[i];
    if (LitRedundant(q)) {
      ++stats_.minimized_literals;
    } else {
      (*learned)[kept++] = q;
    }
  }
  learned->resize(kept);

  // Backtrack level: second-highest level in the learned clause.
  if (learned->size() == 1) {
    *bt_level = 0;
  } else {
    size_t max_i = 1;
    for (size_t i = 2; i < learned->size(); ++i) {
      if (levels_[static_cast<size_t>(VarOf((*learned)[i]))] >
          levels_[static_cast<size_t>(VarOf((*learned)[max_i]))]) {
        max_i = i;
      }
    }
    std::swap((*learned)[1], (*learned)[max_i]);
    *bt_level = levels_[static_cast<size_t>(VarOf((*learned)[1]))];
  }
  for (Var v : to_clear) seen_[static_cast<size_t>(v)] = 0;
}

bool Solver::LitRedundant(Lit q) const {
  ClauseRef reason = reasons_[static_cast<size_t>(VarOf(q))];
  if (reason == kNoClause) return false;  // Decision or assumption.
  const Lit* lits = LitsOf(reason);
  uint32_t size = SizeOf(reason);
  for (uint32_t j = 0; j < size; ++j) {
    Var v = VarOf(lits[j]);
    if (v == VarOf(q)) continue;  // The propagated literal itself.
    if (!seen_[static_cast<size_t>(v)] && levels_[static_cast<size_t>(v)] != 0) {
      return false;
    }
  }
  return true;
}

Var Solver::PickBranchVar() {
  while (!heap_.empty()) {
    Var v = heap_[0].var;
    heap_pos_[static_cast<size_t>(v)] = -1;
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_pos_[static_cast<size_t>(heap_[0].var)] = 0;
      HeapSiftDown(0);
    }
    if (values_[static_cast<size_t>(v)] == LBool::kUndef) return v;
  }
  return -1;
}

bool Solver::IsReason(ClauseRef cref) const {
  // While a clause is some variable's reason, its asserting literal sits in
  // slot 0 (Propagate never displaces a true watched literal).
  Lit l0 = LitsOf(cref)[0];
  return ValueOf(l0) == LBool::kTrue &&
         reasons_[static_cast<size_t>(VarOf(l0))] == cref;
}

void Solver::ReduceDb() {
  assert(DecisionLevel() == 0);
  ++stats_.db_reductions;
  // Worst clauses first: highest LBD, then lowest activity within a tier —
  // glucose-style ranking, so victims are the clauses that span many decision
  // levels AND have not recently been useful. stable_sort keeps deletion
  // deterministic across platforms when both keys tie.
  std::stable_sort(learned_.begin(), learned_.end(),
                   [this](ClauseRef a, ClauseRef b) {
                     if (LbdOf(a) != LbdOf(b)) return LbdOf(a) > LbdOf(b);
                     return ActivityOf(a) < ActivityOf(b);
                   });
  size_t target = learned_.size() / 2;
  size_t removed = 0;
  for (ClauseRef cref : learned_) {
    if (removed >= target) break;
    if (LbdOf(cref) <= 2) continue;   // Glue clauses are kept unconditionally.
    if (SizeOf(cref) <= 2) continue;  // Binary clauses are cheap; keep them.
    if (IsReason(cref)) continue;     // Reasons of assigned vars must survive.
    arena_[cref] |= kHdrDeleted;
    wasted_words_ += 3 + SizeOf(cref);
    ++removed;
  }
  stats_.learned_deleted += removed;
  if (removed > 0) GarbageCollect();
}

void Solver::GarbageCollect() {
  std::vector<uint32_t> fresh;
  fresh.reserve(arena_.size() - wasted_words_);
  // Pass 1: copy surviving clauses; leave a forwarding header in the old arena.
  size_t off = 0;
  while (off < arena_.size()) {
    uint32_t header = arena_[off];
    assert((header & kHdrForward) == 0);
    uint32_t size = header >> 3;
    size_t span = 1 + ((header & kHdrLearned) ? 2 : 0) + size;
    if ((header & kHdrDeleted) == 0) {
      uint32_t noff = static_cast<uint32_t>(fresh.size());
      fresh.insert(fresh.end(), arena_.begin() + static_cast<ptrdiff_t>(off),
                   arena_.begin() + static_cast<ptrdiff_t>(off + span));
      arena_[off] = (noff << 3) | kHdrForward;
    }
    off += span;
  }
  // Pass 2: remap watchers (dropping deleted clauses), reasons and the learned
  // list through the forwarding headers.
  auto forward = [this](ClauseRef cref) -> ClauseRef {
    uint32_t header = arena_[cref];
    return (header & kHdrForward) ? (header >> 3) : kNoClause;
  };
  for (auto& watch_list : watches_) {
    size_t keep = 0;
    for (const Watcher& w : watch_list) {
      ClauseRef nref = forward(w.cref);
      if (nref != kNoClause) watch_list[keep++] = {nref, w.blocker};
    }
    watch_list.resize(keep);
  }
  for (ClauseRef& r : reasons_) {
    if (r == kNoClause) continue;
    r = forward(r);
    assert(r != kNoClause && "a reason clause was deleted");
  }
  size_t keep = 0;
  for (ClauseRef cref : learned_) {
    ClauseRef nref = forward(cref);
    if (nref != kNoClause) learned_[keep++] = nref;
  }
  learned_.resize(keep);
  arena_ = std::move(fresh);
  wasted_words_ = 0;
}

int Solver::LubyUnit(int i) {
  // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  int k = 1;
  while ((1 << (k + 1)) <= i + 1) ++k;
  while ((1 << k) - 1 != i + 1) {
    i = i - (1 << k) + 1;
    k = 1;
    while ((1 << (k + 1)) <= i + 1) ++k;
  }
  return 1 << (k - 1);
}

SolveResult Solver::Solve(const std::vector<Lit>& assumptions) {
  ++stats_.solve_calls;
  if (!ok_) return SolveResult::kUnsat;
  // An already-tripped budget or an expired token abandons the call up front
  // (the session's token usually fired between requests, not mid-search).
  if (limits_active_ && Interrupted(/*poll_token=*/true)) return AbortSolve();
  // Trail saving: level i+1, while still on the trail, holds exactly the
  // decision + propagation of last_assumptions_[i], so the prefix shared with
  // the new vector is adopted wholesale and only the first divergent level
  // onward is undone. AddClause may already have backtracked below the saved
  // prefix — DecisionLevel() bounds what is reusable.
  size_t matched = 0;
  size_t limit =
      std::min(std::min(assumptions.size(), last_assumptions_.size()),
               static_cast<size_t>(DecisionLevel()));
  while (matched < limit && assumptions[matched] == last_assumptions_[matched]) {
    ++matched;
  }
  CancelUntil(static_cast<int>(matched));
  if (matched > 0) {
    stats_.reused_assumption_levels += matched;
    stats_.saved_propagations +=
        trail_.size() - static_cast<size_t>(trail_lim_[0]);
  }
  last_assumptions_.assign(assumptions.begin(), assumptions.end());
  if (DecisionLevel() == 0 && Propagate() != kNoClause) {
    ok_ = false;
    return SolveResult::kUnsat;
  }

  int restart_count = 0;
  uint64_t conflict_budget =
      100 * static_cast<uint64_t>(LubyUnit(restart_count));
  uint64_t conflicts_here = 0;
  std::vector<Lit>& learned = learned_tmp_;

  while (true) {
    ClauseRef confl = Propagate();
    if (confl != kNoClause) {
      ++stats_.conflicts;
      ++conflicts_here;
      if (DecisionLevel() == 0) {
        ok_ = false;
        return SolveResult::kUnsat;
      }
      // Budget/interrupt check, once per conflict (the token itself only every
      // 64th — Expired() reads a clock). Checked after the root-conflict
      // branch so a definite UNSAT one line away is never traded for kUnknown.
      if (limits_active_ &&
          Interrupted(/*poll_token=*/(stats_.conflicts & 63) == 0)) {
        return AbortSolve();
      }
      // A conflict among assumption decisions alone (no free decisions below the
      // conflict's resolution) may require backjumping into the assumption prefix;
      // the assumptions are then re-decided. If the conflict persists with only
      // assumptions on the trail and analysis yields level 0, the unit is
      // propagated there; if an assumption is thereby falsified the decision step
      // below reports kUnsat.
      int bt_level = 0;
      Analyze(confl, &learned, &bt_level);
      // LBD must be read off levels_ before CancelUntil unassigns them.
      uint32_t lbd = ComputeLbd(learned);
      if (lbd <= 2) ++stats_.glue_clauses;
      CancelUntil(bt_level);
      if (learned.size() == 1) {
        if (ValueOf(learned[0]) == LBool::kFalse) {
          ok_ = false;
          return SolveResult::kUnsat;
        }
        if (ValueOf(learned[0]) == LBool::kUndef) Enqueue(learned[0], kNoClause);
      } else {
        ClauseRef cref = AllocClause(learned, /*learned=*/true, lbd);
        ++stats_.learned_clauses;
        Attach(cref);
        Enqueue(learned[0], cref);
      }
      DecayActivities();
      continue;
    }

    if (conflicts_here >= conflict_budget) {
      // Restart; reduce the learned DB at the root if it has outgrown its
      // budget, so descend-and-block runs do not accumulate clauses unboundedly.
      ++stats_.restarts;
      ++restart_count;
      conflict_budget = 100 * static_cast<uint64_t>(LubyUnit(restart_count));
      conflicts_here = 0;
      CancelUntil(0);
      if (learned_.size() >= reduce_limit_) {
        ReduceDb();
        reduce_limit_ += reduce_limit_ / 2;
      }
      continue;
    }

    // Propagation-budget check at decision points: long conflict-free
    // propagation stretches must not outrun the budget unchecked. Two integer
    // compares — no token poll here.
    if (limits_active_ && Interrupted(/*poll_token=*/false)) {
      return AbortSolve();
    }

    // Decision: assumptions first, then activity order.
    if (DecisionLevel() < static_cast<int>(assumptions.size())) {
      Lit a = assumptions[static_cast<size_t>(DecisionLevel())];
      LBool v = ValueOf(a);
      if (v == LBool::kFalse) {
        // Assumption contradicted. The consistent prefix decided so far stays
        // on the trail for the next call.
        return SolveResult::kUnsat;
      }
      NewDecisionLevel();
      if (v == LBool::kUndef) {
        Enqueue(a, kNoClause);
      }
      // If already true, the level is a placeholder so indices keep aligned.
      continue;
    }

    Var next = PickBranchVar();
    if (next < 0) {
      // All variables assigned: model found. The assumption levels
      // (re-established by the decision loop after any restart) stay on the
      // trail; only the free search levels above them are undone.
      model_.assign(values_.size(), 0);
      for (size_t i = 0; i < values_.size(); ++i) {
        model_[i] = values_[i] == LBool::kTrue ? 1 : -1;
      }
      CancelUntil(static_cast<int>(assumptions.size()));
      return SolveResult::kSat;
    }
    ++stats_.decisions;
    NewDecisionLevel();
    bool phase = saved_phase_[static_cast<size_t>(next)] >= 0;
    Enqueue(MkLit(next, !phase), kNoClause);
  }
}

}  // namespace kbt::sat
