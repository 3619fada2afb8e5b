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

#include "base/status.h"
#include "datalog/ast.h"
#include "rel/database.h"

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

}  // namespace kbt::datalog

#endif  // KBT_DATALOG_EVAL_H_
