#ifndef KBT_CORE_UNIVERSE_H_
#define KBT_CORE_UNIVERSE_H_

/// \file
/// The update context of eq. (9): given a sentence φ and database db, the candidate
/// space of μ(φ, db) is DB^B_s where s = σ(db) ∪ σ(φ) and B is the smallest subset
/// of the domain containing all values of db and all constants of φ.

#include <vector>

#include "base/status.h"
#include "logic/formula.h"
#include "rel/database.h"

namespace kbt {

/// Everything fixed by (φ, db) before minimization starts.
struct UpdateContext {
  /// s = σ(db) ∪ σ(φ): db's declarations first, then φ's new relations in
  /// first-appearance order.
  Schema schema;
  /// B: values of db plus constants of φ, sorted.
  std::vector<Value> domain;
  /// db embedded into s (new relations empty). Candidates deviate from this.
  Database extended_base;
};

/// Builds the context. Fails when φ is not a sentence, or uses a relation of σ(db)
/// at a different arity.
StatusOr<UpdateContext> MakeUpdateContext(const Formula& sentence, const Database& db);

}  // namespace kbt

#endif  // KBT_CORE_UNIVERSE_H_
