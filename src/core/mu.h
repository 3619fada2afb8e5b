#ifndef KBT_CORE_MU_H_
#define KBT_CORE_MU_H_

/// \file
/// μ(φ, db) — eq. (9): the databases over (B, s) that model φ and are ≤_db-minimal.
/// This is the paper's primary primitive; τ (eq. 10) unions it over a knowledgebase.
///
/// Four evaluation strategies implement the same mathematical function:
///
///  * kReference — the specification transcribed: enumerate every assignment to the
///    ground atoms mentioned by the grounding of φ (unmentioned atoms keep their
///    default in any minimal model) and keep the ≤_db-minimal models by pairwise
///    comparison. Exponential; also *the* PTIME algorithm of Theorem 4.7 when φ is
///    ground, since then the mentioned atoms are the ≤|φ| atoms of φ.
///  * kSat — the scalable engine: Tseitin-encode the grounding and enumerate
///    Winslett-minimal models with a CDCL solver via two-stage descent
///    (old-relation symmetric differences first, then new-relation contents) and
///    cone-blocking clauses.
///  * kDatalog — Theorem 4.8: φ is a conjunction of universally closed Horn clauses
///    whose head predicates are new; μ is the singleton {db ∪ lfp(P)} computed by
///    semi-naive evaluation.
///  * kDefinitional — the Theorem 5.1 shape: conjuncts ∀x̄ (ψ(x̄) → H(x̄)) or
///    ∀x̄ (ψ(x̄) ↔ H(x̄)) with H new and ψ over σ(db); each H is ψ's answer set.
///
/// kAuto picks the cheapest applicable strategy (ground → reference; Horn →
/// datalog; definitional → definitional; otherwise SAT). All strategies are
/// cross-validated against kReference in tests/mu_crosscheck_test.cc.

#include <cstdint>

#include "base/cancel.h"
#include "base/status.h"
#include "core/universe.h"
#include "logic/formula.h"
#include "rel/knowledgebase.h"

namespace kbt {

enum class MuStrategy {
  kAuto,
  kReference,
  kSat,
  kDatalog,
  kDefinitional,
};

/// Human-readable strategy name.
const char* MuStrategyName(MuStrategy strategy);

struct MuOptions {
  MuStrategy strategy = MuStrategy::kAuto;
  /// Grounding circuit node budget (kResourceExhausted beyond it).
  size_t max_ground_nodes = 5'000'000;
  /// Reference enumeration: maximum mentioned ground atoms (2^k assignments).
  /// τ runs μ per atom-disjoint component of the grounding, so there the
  /// budget counts one component's atoms.
  size_t max_reference_atoms = 20;
  /// Maximum number of minimal models μ may return before kResourceExhausted.
  /// In τ it bounds each world's result, the product of its components'
  /// minimal models, checked before the product is built (and the SAT
  /// strategy checks each component's own count as it enumerates).
  size_t max_models = 1'000'000;
  /// Cooperative cancellation: checked at enumeration boundaries and polled
  /// inside the SAT search; an expired token makes μ return kDeadlineExceeded.
  /// Must outlive the call. nullptr (the default) disables every check — the
  /// computation is then bit-identical to a token-free build.
  const CancelToken* cancel = nullptr;
  /// SAT-strategy conflict budget per μ call (0 = unlimited): once the
  /// session solver has spent this many further conflicts, μ returns
  /// kDeadlineExceeded with the solver reusable. A coarse-grained guard for
  /// servers that cannot afford an unbounded descent even with no deadline.
  uint64_t sat_conflict_budget = 0;
};

struct MuStats {
  MuStrategy used = MuStrategy::kAuto;
  /// Number of minimal models returned.
  size_t minimal_models = 0;
  /// Candidate models examined (reference: assignments; sat: models found;
  /// definitional: one per definition). τ evaluates definitional μ once per
  /// block of 64 worlds (docs/exec.md) but counts per world, as plain μ
  /// does: one minimal model per world and one candidate per world and
  /// definition.
  size_t candidates_examined = 0;
  /// Circuit nodes in the grounding (reference and sat strategies).
  size_t ground_nodes = 0;
  /// Mentioned ground atoms.
  size_t ground_atoms = 0;
  /// SAT statistics (sat strategy only).
  uint64_t sat_solve_calls = 0;
  uint64_t sat_conflicts = 0;
  uint64_t sat_decisions = 0;
  /// Assumption decision levels retained across descent solves, and the trail
  /// literals those levels kept enqueued (sat::Solver's trail saving).
  uint64_t sat_reused_levels = 0;
  uint64_t sat_saved_propagations = 0;
  /// Interrupt-token polls inside the SAT search and solves abandoned by a
  /// budget/token trip (both 0 unless cancel/sat_conflict_budget are set).
  uint64_t sat_interrupt_checks = 0;
  uint64_t sat_budget_trips = 0;
  /// Datalog statistics (datalog strategy only): fixpoint rounds and derived
  /// head tuples of the world's least model. τ evaluates Datalog μ once per
  /// block of 64 worlds (docs/exec.md), so there `datalog_rounds` sums the
  /// rounds of each block's fixpoint, not of each world's, while
  /// `datalog_derived_tuples` still sums each world's derived tuples.
  size_t datalog_rounds = 0;
  size_t datalog_derived_tuples = 0;

  /// Accumulates counters (for τ over many databases).
  void MergeFrom(const MuStats& other);
};

/// Computes μ(φ, db). The result is a knowledgebase over s = σ(db) ∪ σ(φ); it is
/// empty iff φ has no models over (B, s).
StatusOr<Knowledgebase> Mu(const Formula& sentence, const Database& db,
                           const MuOptions& options = MuOptions(),
                           MuStats* stats = nullptr);

}  // namespace kbt

#endif  // KBT_CORE_MU_H_
