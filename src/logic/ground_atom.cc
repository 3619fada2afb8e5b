#include "logic/ground_atom.h"

namespace kbt {

int AtomIndex::IdOf(Symbol relation, TupleView values) {
  const size_t hash = SlotHash(relation, values);
  if (!table_.empty()) {
    const int32_t found = table_[SlotOf(hash, relation, values)];
    if (found != kEmptySlot) return found;
  }
  // Keep the table at most half full, so a probe for an absent atom (most of
  // τ's delta tuples) stops within a few slots.
  if ((relations_.size() + 1) * 2 > table_.size()) GrowTable();
  const int32_t id = static_cast<int32_t>(relations_.size());
  table_[SlotOf(hash, relation, values)] = id;
  if (begins_.empty()) begins_.push_back(0);
  relations_.push_back(relation);
  values_.insert(values_.end(), values.begin(), values.end());
  begins_.push_back(static_cast<uint32_t>(values_.size()));
  return id;
}

void AtomIndex::GrowTable() {
  std::vector<int32_t> grown(table_.empty() ? 16 : table_.size() * 2,
                             kEmptySlot);
  const size_t mask = grown.size() - 1;
  for (size_t i = 0; i < relations_.size(); ++i) {
    const GroundAtom atom = AtomOf(static_cast<int>(i));
    size_t slot = SlotHash(atom.relation, atom.tuple) & mask;
    while (grown[slot] != kEmptySlot) slot = (slot + 1) & mask;
    grown[slot] = static_cast<int32_t>(i);
  }
  table_ = std::move(grown);
}

void AtomIndex::ShrinkToFit() {
  relations_.shrink_to_fit();
  begins_.shrink_to_fit();
  values_.shrink_to_fit();
}

size_t AtomIndex::HeapBytes() const {
  return relations_.capacity() * sizeof(Symbol) +
         begins_.capacity() * sizeof(uint32_t) +
         values_.capacity() * sizeof(Value) +
         table_.capacity() * sizeof(int32_t);
}

}  // namespace kbt
