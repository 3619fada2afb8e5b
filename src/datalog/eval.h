#ifndef KBT_DATALOG_EVAL_H_
#define KBT_DATALOG_EVAL_H_

/// \file
/// Bottom-up Datalog evaluation: semi-naive fixpoint computation, stratum by
/// stratum.
///
/// Theorem 4.8's PTIME bound rests on "Datalog programs have a unique least model
/// that can be computed using naive evaluation in PTIME"; semi-naive is the standard
/// differential refinement of it (each round joins through the previous round's new
/// tuples only) and reaches the same least model. Stratified negation implements the
/// paper's remark that the iterative fixpoint of a stratified program is obtained by
/// updating with the strata in hierarchical order.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "datalog/ast.h"
#include "rel/database.h"

namespace kbt {
class CancelToken;
}  // namespace kbt

namespace kbt::datalog {

struct EvalStats {
  /// Fixpoint rounds summed over strata.
  size_t rounds = 0;
  /// Tuples newly derived (beyond the EDB).
  size_t derived_tuples = 0;
  /// Rule instantiation attempts (join probes at the outermost level).
  size_t rule_evaluations = 0;
};

/// Computes the least model of `program` over the extensional database `edb`.
///
/// The result contains every relation of `edb` unchanged plus one relation per IDB
/// predicate (appended in first-appearance order). A head predicate already present
/// in `edb` keeps its stored tuples as additional facts. The program must be safe
/// and stratifiable.
kbt::StatusOr<kbt::Database> Evaluate(const Program& program, const kbt::Database& edb,
                                      EvalStats* stats = nullptr);

/// The facts of one relation over a block of up to 64 worlds: fact k is the
/// tuple values[k * arity, (k + 1) * arity) and holds in world w of the block
/// iff bit w of masks[k] is set. A tuple may occur more than once; it then
/// holds in every world one of its masks names.
struct MaskedFacts {
  size_t arity = 0;
  std::vector<kbt::Value> values;
  std::vector<uint64_t> masks;
};

/// One head predicate of EvaluateMasked's result: its derived tuples in tuple
/// order, and for each the worlds whose least model holds it (never 0).
struct MaskedHead {
  Symbol predicate = 0;
  kbt::Relation tuples;
  std::vector<uint64_t> masks;  ///< Parallel to the rows of `tuples`.
};

/// The least models of a positive program in up to 64 worlds at once: one
/// semi-naive fixpoint over facts annotated with the set of worlds in which
/// they hold (the boolean semiring of world sets; Green, Karvounarakis &
/// Tannen, "Provenance Semirings", PODS 2007). A derivation holds in the AND
/// of its premises' masks and is ORed into its head fact; the bits newly set
/// in a round are the next round's delta; (in)equality constraints do not
/// depend on the world. World w's least model is therefore exactly the facts
/// whose mask has bit w — what Evaluate computes over world w alone.
///
/// `edb` holds the body relations that are not head predicates (one it omits
/// is empty) and must hold no head predicate. `worlds` is the block's mask: a
/// rule without positive literals derives its head in all of them. Returns
/// the head predicates in Program::HeadPredicates order. kUnsupported for a
/// negated literal; kDeadlineExceeded when `cancel` (may be null) has expired
/// before a round. `stats->rounds` counts the block's rounds and
/// `stats->derived_tuples` the (fact, world) pairs of the heads, the sum over
/// the block's worlds of what Evaluate reports for each.
kbt::StatusOr<std::vector<MaskedHead>> EvaluateMasked(
    const Program& program,
    const std::unordered_map<Symbol, MaskedFacts>& edb, uint64_t worlds,
    const kbt::CancelToken* cancel, EvalStats* stats = nullptr);

}  // namespace kbt::datalog

#endif  // KBT_DATALOG_EVAL_H_
