#ifndef KBT_LOGIC_GROUND_ATOM_H_
#define KBT_LOGIC_GROUND_ATOM_H_

/// \file
/// Ground atoms R(a1, ..., ak) and a dense index over them.
///
/// Grounding a sentence over the active domain B turns it into a propositional
/// formula whose variables are ground atoms; the update engine then works with
/// dense atom ids.
///
/// The index keeps no object per atom. Each atom's relation and the offset of
/// its values are entries of flat arrays, its values are one run of a shared
/// value buffer, and a lookup probes an open-addressed table of ids. So an
/// index of n atoms holds four heap blocks however large n is, where an
/// owning tuple per atom and a hash node per entry took three blocks each.
/// Groundings outlive the τ call that builds them: the CNF prefix cache and
/// the serving cache bank keep them, the bank one per recent sentence
/// (docs/exec.md, the grounding cache's resting form).

#include <cstdint>
#include <string>
#include <vector>

#include "base/hash.h"
#include "rel/tuple.h"

namespace kbt {

/// A relation symbol applied to a ground tuple. `tuple` views values it does
/// not own: an atom from AtomIndex::AtomOf is valid while its index lives and
/// interns nothing more (IdOf of a new atom, or ShrinkToFit, may move the
/// values). Copy it with `tuple.ToTuple()` to keep it longer.
struct GroundAtom {
  Symbol relation;
  TupleView tuple;

  friend bool operator==(const GroundAtom& a, const GroundAtom& b) {
    return a.relation == b.relation && a.tuple == b.tuple;
  }

  std::string ToString() const { return NameOf(relation) + tuple.ToString(); }
};

/// Interns ground atoms into dense ids [0, size), in first-interned order.
class AtomIndex {
 public:
  /// Id of the atom `relation(values...)`, interning it on first use. The
  /// values are copied; `values` may point anywhere but into this index.
  int IdOf(Symbol relation, TupleView values);

  /// Id of the atom `relation(values...)` if interned, else -1. Allocates
  /// nothing.
  int Find(Symbol relation, TupleView values) const {
    if (table_.empty()) return -1;
    return table_[SlotOf(SlotHash(relation, values), relation, values)];
  }

  /// The atom with dense id `id` (must be < size()), as a view into this
  /// index (see GroundAtom for how long it stays valid).
  GroundAtom AtomOf(int id) const {
    const size_t i = static_cast<size_t>(id);
    return GroundAtom{relations_[i],
                      TupleView(values_.data() + begins_[i],
                                begins_[i + 1] - begins_[i])};
  }

  /// Number of interned atoms.
  size_t size() const { return relations_.size(); }

  /// Releases the arrays' spare capacity. Ids, lookups and atoms are
  /// unchanged; views from AtomOf taken before are not.
  void ShrinkToFit();

  /// Heap bytes the index holds, from its arrays' capacities.
  size_t HeapBytes() const;

 private:
  static size_t SlotHash(Symbol relation, TupleView values) {
    return static_cast<size_t>(Mix64(HashCombine(values.Hash(), relation)));
  }
  /// The slot that holds the atom, or the free slot that ends its probe.
  /// The table must not be empty.
  size_t SlotOf(size_t hash, Symbol relation, TupleView values) const {
    const size_t mask = table_.size() - 1;
    size_t slot = hash & mask;
    for (int32_t id; (id = table_[slot]) != kEmptySlot;
         slot = (slot + 1) & mask) {
      if (relations_[static_cast<size_t>(id)] == relation &&
          AtomOf(id).tuple == values) {
        break;
      }
    }
    return slot;
  }
  /// Doubles the table (or creates it) and re-slots every id.
  void GrowTable();

  static constexpr int32_t kEmptySlot = -1;

  /// Per atom: its relation.
  std::vector<Symbol> relations_;
  /// Atom i's values are values_[begins_[i], begins_[i + 1]); one entry more
  /// than there are atoms, none before the first.
  std::vector<uint32_t> begins_;
  std::vector<Value> values_;
  /// Open-addressed ids, kEmptySlot when free: a power of two, linear
  /// probing, at most half full. Empty until the first atom.
  std::vector<int32_t> table_;
};

}  // namespace kbt

#endif  // KBT_LOGIC_GROUND_ATOM_H_
