#ifndef KBT_REL_OVERLAY_H_
#define KBT_REL_OVERLAY_H_

/// \file
/// World overlays: one possible world expressed as a sparse delta against a
/// shared immutable base database.
///
/// A WorldOverlay holds, for each touched schema position, a sorted pair of
/// relations (adds, dels) with the canonical invariants
///
///   adds ∩ base = ∅   and   dels ⊆ base,
///
/// so the represented world is (base \ dels) ∪ adds per relation and the
/// representation is *unique*: two worlds over one base are equal iff their
/// overlays are equal, and comparing worlds costs O(delta) instead of
/// O(database). Deltas are kept sorted by position and empty deltas are
/// dropped. CompareWorldsOnBase reproduces the flat Database ordering without
/// materializing either side, which is what keeps Knowledgebase
/// canonicalization — a merge of strictly increasing runs — O(delta) per
/// comparison.

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "rel/database.h"

namespace kbt {

/// The delta of one relation: tuples added to and removed from the base
/// relation at schema position `pos`.
struct RelationDelta {
  uint32_t pos = 0;
  Relation adds;  ///< Sorted; disjoint from the base relation at `pos`.
  Relation dels;  ///< Sorted; subset of the base relation at `pos`.

  bool empty() const { return adds.empty() && dels.empty(); }

  friend bool operator==(const RelationDelta& a, const RelationDelta& b) {
    return a.pos == b.pos && a.adds == b.adds && a.dels == b.dels;
  }
  friend bool operator!=(const RelationDelta& a, const RelationDelta& b) {
    return !(a == b);
  }
};

static_assert(sizeof(RelationDelta) == 40,
              "a delta is its position and two 16-byte relation handles");

/// (base ∪ adds) \ dels in one stride-aware merge pass. `adds` must be
/// disjoint from `base` and `dels` a subset of it (the overlay invariants).
Relation ApplyDelta(const Relation& base, const Relation& adds,
                    const Relation& dels);

/// A sparse, canonical edit of a base database describing one world.
class WorldOverlay {
 public:
  /// The identity overlay (the world equals the base).
  WorldOverlay() = default;

  /// Adopts deltas (any order); empty deltas are dropped, the rest sorted by
  /// position. Positions must be distinct and the invariants above must hold
  /// relative to the intended base — FromDeltas cannot check them without the
  /// base; Validate() can.
  static WorldOverlay FromDeltas(std::vector<RelationDelta> deltas);

  /// The unique overlay turning `base` into `world` (same schema, asserted).
  /// Relations sharing their storage buffer are skipped in O(1), so diffing a
  /// copy-on-write sibling of the base costs O(touched relations) only.
  static WorldOverlay FromDiff(const Database& base, const Database& world);

  /// Materializes the world: a copy of `base` with every touched relation
  /// replaced by its merged form. Untouched relations share storage with the
  /// base (copy-on-write), so the cost is O(touched relation sizes).
  Database ApplyTo(const Database& base) const;

  /// True iff `candidate` == ApplyTo(base), decided without materializing the
  /// applied world: untouched positions compare as Relation handles (storage
  /// fast path when candidate is a copy-on-write sibling), touched positions
  /// by one allocation-free merge walk of (base ∪ adds) \ dels against the
  /// candidate's rows. The τ merge uses this to recognize μ results anchored
  /// at their own input world in O(touched relations) without a Database copy.
  bool ApplyEquals(const Database& base, const Database& candidate) const;

  /// The overlay representing "apply `first`, then `second`" relative to
  /// `first`'s base: `second` must be canonical relative to
  /// first.ApplyTo(base). By the invariants the result is
  ///   adds = (A1 \ D2) ∪ (A2 \ D1),  dels = (D1 \ A2) ∪ (D2 \ A1)
  /// per position — no base access needed. O(delta1 + delta2).
  static WorldOverlay Compose(const WorldOverlay& first,
                              const WorldOverlay& second);

  /// True iff the overlay changes nothing.
  bool identity() const { return deltas_.empty(); }

  const std::vector<RelationDelta>& deltas() const { return deltas_; }

  /// The delta at schema position `pos`, or nullptr (binary search).
  const RelationDelta* FindDelta(size_t pos) const;

  /// Total added + deleted tuples.
  size_t TupleCount() const;

  /// Bytes of tuple storage referenced by this overlay's delta relations
  /// (shared buffers counted fully; deduplicate via Relation::StorageId).
  size_t HeapBytes() const;

  /// Checks the canonical invariants against `base`: positions strictly
  /// ascending and in range, arities matching, adds disjoint from the base
  /// relation, dels contained in it, no empty delta. kDataLoss on violation
  /// (the store uses this to reject corrupt checkpoint payloads).
  Status Validate(const Database& base) const;

  friend bool operator==(const WorldOverlay& a, const WorldOverlay& b) {
    return a.deltas_ == b.deltas_;
  }
  friend bool operator!=(const WorldOverlay& a, const WorldOverlay& b) {
    return !(a == b);
  }

 private:
  std::vector<RelationDelta> deltas_;  // Sorted by pos, none empty.
};

/// Three-way comparison of the worlds `a` and `b` denote over `base`,
/// *identical to the flat ordering* Database::operator< induces (including the
/// nullary row-count tiebreak) but computed from the deltas: O(delta) relation
/// work, then at the single deciding position O(1) when the base relation's
/// last row decides it, else O(log base) row counting. Returns <0, 0, >0.
int CompareWorldsOnBase(const Database& base, const WorldOverlay& a,
                        const WorldOverlay& b);

}  // namespace kbt

#endif  // KBT_REL_OVERLAY_H_
