#ifndef KBT_EVAL_MODEL_CHECK_H_
#define KBT_EVAL_MODEL_CHECK_H_

/// \file
/// Satisfaction db ⊨ φ, the interpretation of equations (4)–(8) in §2, and
/// first-order query evaluation (answer sets of formulas with free variables).
///
/// Quantifiers range over a finite domain supplied by the caller. When omitted, the
/// active domain — the values of db plus the constants of φ — is used, matching the
/// proof of Theorem 4.1. The interpretation is defined only when σ(db) dominates
/// σ(φ); undeclared relations are an error, not false.

#include <cstdint>
#include <span>
#include <vector>

#include "base/status.h"
#include "logic/formula.h"
#include "rel/database.h"
#include "rel/knowledgebase.h"
#include "rel/world_domains.h"

namespace kbt {

/// db ⊨ φ with quantifiers ranging over `domain`. φ must be a sentence.
StatusOr<bool> Satisfies(const Database& db, const Formula& f,
                         const std::vector<Value>& domain);

/// db ⊨ φ over the active domain (values of db ∪ constants of φ).
StatusOr<bool> Satisfies(const Database& db, const Formula& f);

/// kb ⊨ φ: every member database satisfies φ (each over its own active domain).
/// True for the empty kb. Used by KM postulate (ii).
StatusOr<bool> KbSatisfies(const Knowledgebase& kb, const Formula& f);

/// The answer set of φ under db: the tuples (v_1, ..., v_k) over `domain` such that
/// db ⊨ φ[x_1/v_1, ..., x_k/v_k], where `vars` = (x_1, ..., x_k) must cover all free
/// variables of φ. Variables beyond the free ones are allowed (cartesian padding).
StatusOr<Relation> EvaluateQuery(const Database& db, const Formula& f,
                                 const std::vector<Symbol>& vars,
                                 const std::vector<Value>& domain);

/// Computes the active domain for (db, φ): values of db ∪ constants of φ, sorted.
std::vector<Value> ActiveDomain(const Database& db, const Formula& f);

/// A block of at most 64 worlds over one base, as EvaluateQueryMasked reads
/// them: bit w of a world mask stands for the block's world w. Each world
/// keeps its own domain: quantifiers range over the block's universe, the
/// union of the worlds' domains, and a value counts only in the worlds whose
/// domain holds it.
class WorldBlock {
 public:
  /// The worlds `overlays` denote over `base` (canonical against it), with
  /// the domains `domains` gives them. The overlays' flips are indexed only
  /// for the base relations in `relations`: the queries may read no other.
  /// All borrowed arguments must outlive the block.
  WorldBlock(const Database& base, std::span<const WorldOverlay> overlays,
             const WorldDomains& domains, const std::vector<Symbol>& relations);

  const Database& base() const { return base_; }
  /// The mask of all the block's worlds.
  uint64_t all() const { return all_; }
  /// The union of the worlds' domains, sorted. When every world has the
  /// base's domain, the usual case, that vector itself.
  const std::vector<Value>& universe() const { return *universe_; }
  /// The worlds whose domain holds universe()[i].
  uint64_t in_worlds(size_t i) const {
    return in_worlds_.empty() ? all_ : in_worlds_[i];
  }
  /// True when the flips of the base relation at `pos` are indexed.
  bool indexed(size_t pos) const { return indexed_[pos]; }
  /// The worlds holding `t` in the base relation at an indexed `pos`: the
  /// base's membership, with each world's dels clearing its bit and its adds
  /// setting it. Allocates nothing.
  uint64_t AtomMask(size_t pos, TupleView t) const;

 private:
  /// One tuple some world of the block adds or deletes at a position.
  struct Flip {
    TupleView tuple;
    bool in_base;     ///< A deleted base tuple; else an added one.
    uint64_t worlds;  ///< The worlds flipping it.
  };

  const Database& base_;
  uint64_t all_;
  const std::vector<Value>* universe_;
  std::vector<Value> own_universe_;
  std::vector<uint64_t> in_worlds_;  ///< Empty: every value in every world.
  std::vector<bool> indexed_;
  /// Per base position, its flips sorted by tuple.
  std::vector<std::vector<Flip>> flips_;
};

/// An answer set over a WorldBlock: row r, values [r·arity, (r+1)·arity), is
/// an answer in the worlds masks[r], never 0. Rows are distinct.
struct MaskedAnswers {
  size_t arity = 0;
  std::vector<Value> values;
  std::vector<uint64_t> masks;
};

/// The masked twin of EvaluateQuery: the answers of φ in each world of
/// `block` at once, with quantifiers and `vars` ranging over each world's own
/// domain. Row t holds in world w exactly when EvaluateQuery on that world,
/// over its domain, returns t. Connectives act on masks (¬ is the complement
/// within the block, ∧ is AND, ∨ is OR); ∃y φ is the OR over the universe
/// of (the worlds holding v) ∧ φ[v], ∀y φ the AND of (the worlds lacking v)
/// ∨ φ[v], each stopping early once it is settled. The scalar checker behind
/// EvaluateQuery and Satisfies does not use this code: tests compare the
/// two.
StatusOr<MaskedAnswers> EvaluateQueryMasked(const WorldBlock& block,
                                            const Formula& f,
                                            const std::vector<Symbol>& vars);

}  // namespace kbt

#endif  // KBT_EVAL_MODEL_CHECK_H_
