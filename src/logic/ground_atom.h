#ifndef KBT_LOGIC_GROUND_ATOM_H_
#define KBT_LOGIC_GROUND_ATOM_H_

/// \file
/// Ground atoms R(a1, ..., ak) and a dense index over them.
///
/// Grounding a sentence over the active domain B turns it into a propositional
/// formula whose variables are ground atoms; the update engine then works with
/// dense atom ids.

#include <string>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "rel/tuple.h"

namespace kbt {

/// A relation symbol applied to a ground tuple.
struct GroundAtom {
  Symbol relation;
  Tuple tuple;

  friend bool operator==(const GroundAtom& a, const GroundAtom& b) {
    return a.relation == b.relation && a.tuple == b.tuple;
  }

  std::string ToString() const { return NameOf(relation) + tuple.ToString(); }
};

/// A non-owning (relation, tuple view) probe key for AtomIndex lookups that
/// avoids materializing a GroundAtom on the hot grounding path.
struct GroundAtomRef {
  Symbol relation;
  TupleView tuple;
};

struct GroundAtomHash {
  using is_transparent = void;
  size_t operator()(const GroundAtom& a) const {
    return HashCombine(a.tuple.Hash(), a.relation);
  }
  size_t operator()(const GroundAtomRef& a) const {
    return HashCombine(a.tuple.Hash(), a.relation);
  }
};

struct GroundAtomEq {
  using is_transparent = void;
  bool operator()(const GroundAtom& a, const GroundAtom& b) const {
    return a.relation == b.relation && a.tuple == b.tuple;
  }
  bool operator()(const GroundAtomRef& a, const GroundAtom& b) const {
    return a.relation == b.relation && a.tuple == TupleView(b.tuple);
  }
  bool operator()(const GroundAtom& a, const GroundAtomRef& b) const {
    return (*this)(b, a);
  }
};

/// Interns ground atoms into dense ids [0, size).
class AtomIndex {
 public:
  /// Returns the id of `atom`, interning it on first use.
  int IdOf(const GroundAtom& atom) {
    auto it = index_.find(atom);
    if (it != index_.end()) return it->second;
    int id = static_cast<int>(atoms_.size());
    atoms_.push_back(atom);
    index_.emplace(atom, id);
    return id;
  }

  /// Id of the atom `relation(values...)`, interning it on first use. Existing
  /// atoms are found without constructing an owning GroundAtom.
  int IdOf(Symbol relation, TupleView values) {
    auto it = index_.find(GroundAtomRef{relation, values});
    if (it != index_.end()) return it->second;
    return IdOf(GroundAtom{relation, values.ToTuple()});
  }

  /// Returns the id of `atom` if interned, else -1.
  int Find(const GroundAtom& atom) const {
    auto it = index_.find(atom);
    return it == index_.end() ? -1 : it->second;
  }

  /// Id of the atom `relation(values...)` if interned, else -1. Allocates
  /// nothing.
  int Find(Symbol relation, TupleView values) const {
    auto it = index_.find(GroundAtomRef{relation, values});
    return it == index_.end() ? -1 : it->second;
  }

  /// The atom with dense id `id` (must be < size()).
  const GroundAtom& AtomOf(int id) const { return atoms_[static_cast<size_t>(id)]; }

  /// Number of interned atoms.
  size_t size() const { return atoms_.size(); }

 private:
  std::unordered_map<GroundAtom, int, GroundAtomHash, GroundAtomEq> index_;
  std::vector<GroundAtom> atoms_;
};

}  // namespace kbt

#endif  // KBT_LOGIC_GROUND_ATOM_H_
