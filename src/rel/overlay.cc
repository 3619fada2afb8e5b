#include "rel/overlay.h"

#include <algorithm>
#include <cassert>

namespace kbt {

namespace {

/// Number of rows of `r` strictly greater than `t`.
size_t RowsGreaterThan(const Relation& r, TupleView t) {
  if (r.arity() == 0) return 0;  // The single nullary tuple has no successor.
  size_t lb = r.LowerBoundRow(t);
  if (lb < r.size() && CompareValues(r[lb].data(), t.data(), r.arity()) == 0) {
    ++lb;
  }
  return r.size() - lb;
}

/// First row of r Δ s in row order, without materializing the symmetric
/// difference (this runs inside the canonicalization sort comparator, so it
/// must not allocate). Returns false when the sets are equal; otherwise
/// `*out` is the row and `*in_first` whether it came from `r`.
bool MinSymDiffRow(const Relation& r, const Relation& s, size_t arity,
                   TupleView* out, bool* in_first) {
  if (arity == 0) {
    // The only possible row is the empty tuple, present in the larger set.
    if (r.size() == s.size()) return false;
    *out = TupleView();
    *in_first = r.size() > s.size();
    return true;
  }
  size_t i = 0, j = 0;
  while (i < r.size() && j < s.size()) {
    int c = CompareValues(r[i].data(), s[j].data(), arity);
    if (c == 0) {
      ++i;
      ++j;
      continue;
    }
    *out = c < 0 ? r[i] : s[j];
    *in_first = c < 0;
    return true;
  }
  if (i < r.size()) {
    *out = r[i];
    *in_first = true;
    return true;
  }
  if (j < s.size()) {
    *out = s[j];
    *in_first = false;
    return true;
  }
  return false;
}

}  // namespace

Relation ApplyDelta(const Relation& base, const Relation& adds,
                    const Relation& dels) {
  assert(adds.arity() == base.arity() && dels.arity() == base.arity());
  if (adds.empty() && dels.empty()) return base;  // Shares storage.
  if (base.arity() == 0) {
    // dels ⊆ base and adds ∩ base = ∅, so at most one of them is non-empty.
    return !dels.empty() ? Relation(0) : base.Union(adds);
  }
  if (adds.empty()) return base.Difference(dels);
  if (dels.empty()) return base.Union(adds);
  // One pass over (base ∪ adds) \ dels: adds interleave by row order, dels
  // (all present in base) drop their base row as the merge reaches it.
  size_t arity = base.arity();
  Relation::Builder b(arity);
  b.Reserve(base.size() + adds.size() - dels.size());
  const Value* row = base.flat().data();
  const Value* end = row + base.flat().size();
  size_t ai = 0, di = 0;
  while (row != end || ai < adds.size()) {
    bool take_add = ai < adds.size() &&
                    (row == end ||
                     CompareValues(adds[ai].data(), row, arity) < 0);
    if (take_add) {
      b.Append(adds[ai++]);
      continue;
    }
    if (di < dels.size() && CompareValues(dels[di].data(), row, arity) == 0) {
      ++di;  // Drop this base row.
    } else {
      b.Append(TupleView(row, arity));
    }
    row += arity;
  }
  return b.Build();
}

WorldOverlay WorldOverlay::FromDeltas(std::vector<RelationDelta> deltas) {
  deltas.erase(std::remove_if(deltas.begin(), deltas.end(),
                              [](const RelationDelta& d) { return d.empty(); }),
               deltas.end());
  auto by_pos = [](const RelationDelta& a, const RelationDelta& b) {
    return a.pos < b.pos;
  };
  // Callers almost always build deltas in position order already; the
  // is_sorted probe avoids sort's swap churn of Relation handles.
  if (!std::is_sorted(deltas.begin(), deltas.end(), by_pos)) {
    std::sort(deltas.begin(), deltas.end(), by_pos);
  }
  WorldOverlay out;
  out.deltas_ = std::move(deltas);
  return out;
}

WorldOverlay WorldOverlay::FromDiff(const Database& base,
                                    const Database& world) {
  assert(base.schema() == world.schema() &&
         "overlay diff requires one schema");
  WorldOverlay out;
  for (size_t p = 0; p < base.size(); ++p) {
    const Relation& b = base.relation_at(p);
    const Relation& w = world.relation_at(p);
    // Copy-on-write siblings share buffers: identical storage means no delta.
    if (b.StorageId() == w.StorageId() && b.size() == w.size()) continue;
    RelationDelta d;
    d.pos = static_cast<uint32_t>(p);
    d.adds = w.Difference(b);
    d.dels = b.Difference(w);
    if (!d.empty()) out.deltas_.push_back(std::move(d));
  }
  return out;
}

Database WorldOverlay::ApplyTo(const Database& base) const {
  Database out = base;  // Copy-on-write: relation buffers are shared.
  for (const RelationDelta& d : deltas_) {
    out.ReplaceRelation(d.pos,
                        ApplyDelta(base.relation_at(d.pos), d.adds, d.dels));
  }
  return out;
}

bool WorldOverlay::ApplyEquals(const Database& base,
                               const Database& candidate) const {
  if (candidate.schema() != base.schema()) return false;
  size_t d = 0;
  for (size_t p = 0; p < base.size(); ++p) {
    const Relation& b = base.relation_at(p);
    const Relation& c = candidate.relation_at(p);
    if (d >= deltas_.size() || deltas_[d].pos != p) {
      if (c != b) return false;
      continue;
    }
    const RelationDelta& delta = deltas_[d++];
    if (c.arity() != b.arity() ||
        c.size() != b.size() + delta.adds.size() - delta.dels.size()) {
      return false;
    }
    // Nullary relations are decided by the size check: the only row is ().
    size_t arity = b.arity();
    if (arity == 0) continue;
    // Merge-walk (base ∪ adds) \ dels in row order against candidate's rows;
    // the size check above guarantees both walks produce equally many rows.
    const Value* row = b.flat().data();
    const Value* end = row + b.flat().size();
    const Value* crow = c.flat().data();
    size_t ai = 0, di = 0;
    while (row != end || ai < delta.adds.size()) {
      bool take_add =
          ai < delta.adds.size() &&
          (row == end || CompareValues(delta.adds[ai].data(), row, arity) < 0);
      if (take_add) {
        if (CompareValues(delta.adds[ai++].data(), crow, arity) != 0) {
          return false;
        }
        crow += arity;
        continue;
      }
      if (di < delta.dels.size() &&
          CompareValues(delta.dels[di].data(), row, arity) == 0) {
        ++di;  // Dropped from the applied world.
      } else {
        if (CompareValues(row, crow, arity) != 0) return false;
        crow += arity;
      }
      row += arity;
    }
  }
  return true;
}

WorldOverlay WorldOverlay::Compose(const WorldOverlay& first,
                                   const WorldOverlay& second) {
  WorldOverlay out;
  out.deltas_.reserve(first.deltas_.size() + second.deltas_.size());
  size_t i = 0, j = 0;
  while (i < first.deltas_.size() || j < second.deltas_.size()) {
    bool take_first =
        i < first.deltas_.size() &&
        (j >= second.deltas_.size() ||
         first.deltas_[i].pos <= second.deltas_[j].pos);
    bool take_second =
        j < second.deltas_.size() &&
        (i >= first.deltas_.size() ||
         second.deltas_[j].pos <= first.deltas_[i].pos);
    RelationDelta d;
    if (take_first && take_second) {
      const RelationDelta& d1 = first.deltas_[i++];
      const RelationDelta& d2 = second.deltas_[j++];
      d.pos = d1.pos;
      d.adds = d1.adds.Difference(d2.dels).Union(d2.adds.Difference(d1.dels));
      d.dels = d1.dels.Difference(d2.adds).Union(d2.dels.Difference(d1.adds));
    } else if (take_first) {
      d = first.deltas_[i++];
    } else {
      d = second.deltas_[j++];
    }
    if (!d.empty()) out.deltas_.push_back(std::move(d));
  }
  return out;
}

const RelationDelta* WorldOverlay::FindDelta(size_t pos) const {
  auto it = std::lower_bound(deltas_.begin(), deltas_.end(), pos,
                             [](const RelationDelta& d, size_t p) {
                               return d.pos < p;
                             });
  if (it == deltas_.end() || it->pos != pos) return nullptr;
  return &*it;
}

size_t WorldOverlay::TupleCount() const {
  size_t n = 0;
  for (const RelationDelta& d : deltas_) n += d.adds.size() + d.dels.size();
  return n;
}

size_t WorldOverlay::HeapBytes() const {
  size_t n = sizeof(RelationDelta) * deltas_.capacity();
  for (const RelationDelta& d : deltas_) {
    n += d.adds.HeapBytes() + d.dels.HeapBytes();
  }
  return n;
}

Status WorldOverlay::Validate(const Database& base) const {
  size_t prev_pos = 0;
  bool first = true;
  for (const RelationDelta& d : deltas_) {
    if (!first && d.pos <= prev_pos) {
      return Status::DataLoss("overlay deltas out of order");
    }
    first = false;
    prev_pos = d.pos;
    if (d.pos >= base.size()) {
      return Status::DataLoss("overlay delta position outside schema");
    }
    const Relation& b = base.relation_at(d.pos);
    if (d.adds.arity() != b.arity() || d.dels.arity() != b.arity()) {
      return Status::DataLoss("overlay delta arity mismatch");
    }
    if (d.empty()) return Status::DataLoss("overlay holds an empty delta");
    if (!d.adds.Intersect(b).empty()) {
      return Status::DataLoss("overlay adds overlap the base relation");
    }
    if (!d.dels.IsSubsetOf(b)) {
      return Status::DataLoss("overlay dels exceed the base relation");
    }
  }
  return Status::OK();
}

int CompareWorldsOnBase(const Database& base, const WorldOverlay& a,
                        const WorldOverlay& b) {
  // Walk the two sorted delta lists position by position. At each position the
  // worlds S_a, S_b differ exactly on (A_a Δ A_b) ∪ (D_a Δ D_b) — adds live
  // outside the base relation and dels inside it, so membership of any
  // candidate is decided without probing the base. The flat row-lexicographic
  // order is decided at x* = min(S_a Δ S_b): the world containing x* is
  // smaller, unless the other world has no row greater than x* at all (then it
  // is a strict prefix, hence smaller). Nullary relations fall out of the same
  // logic because the single empty tuple has no successor: empty < non-empty,
  // matching the rows tiebreak in Relation::operator<.
  const std::vector<RelationDelta>& da = a.deltas();
  const std::vector<RelationDelta>& db = b.deltas();
  size_t i = 0, j = 0;
  while (i < da.size() || j < db.size()) {
    uint32_t pos;
    const RelationDelta* ra = nullptr;
    const RelationDelta* rb = nullptr;
    if (i < da.size() && (j >= db.size() || da[i].pos <= db[j].pos)) {
      pos = da[i].pos;
      ra = &da[i++];
      if (j < db.size() && db[j].pos == pos) rb = &db[j++];
    } else {
      pos = db[j].pos;
      rb = &db[j++];
    }
    const Relation& base_rel = base.relation_at(pos);
    const Relation empty(base_rel.arity());
    const Relation& aa = ra != nullptr ? ra->adds : empty;
    const Relation& ad = ra != nullptr ? ra->dels : empty;
    const Relation& ba = rb != nullptr ? rb->adds : empty;
    const Relation& bd = rb != nullptr ? rb->dels : empty;
    // x* = min of the symmetric difference; the two candidate pools are
    // disjoint (adds ∉ base, dels ∈ base). Which side of each pool supplied
    // the candidate already decides membership: an adds-candidate belongs to
    // the world whose adds hold it, a dels-candidate to the world whose dels
    // do *not* hold it.
    TupleView x_adds, x_dels;
    bool adds_in_a = false, dels_in_a = false;
    bool have_adds =
        MinSymDiffRow(aa, ba, base_rel.arity(), &x_adds, &adds_in_a);
    bool have_dels =
        MinSymDiffRow(ad, bd, base_rel.arity(), &x_dels, &dels_in_a);
    if (!have_adds && !have_dels) continue;
    bool from_adds =
        have_adds && (!have_dels ||
                      CompareValues(x_adds.data(), x_dels.data(),
                                    base_rel.arity()) < 0);
    TupleView x = from_adds ? x_adds : x_dels;
    bool in_a = from_adds ? adds_in_a : !dels_in_a;
    // Does the world *not* containing x* hold a row after x*? Usually the
    // base's last row answers in O(1): it lies past x* and that world keeps
    // it (dels ⊆ base, so the world deletes it iff its dels end with it).
    // Otherwise count the rows past x*.
    const Relation& other_adds = in_a ? ba : aa;
    const Relation& other_dels = in_a ? bd : ad;
    const size_t arity = base_rel.arity();
    bool other_greater;
    if (arity > 0 && !base_rel.empty() &&
        CompareValues(base_rel.back().data(), x.data(), arity) > 0 &&
        (other_dels.empty() ||
         CompareValues(other_dels.back().data(), base_rel.back().data(),
                       arity) != 0)) {
      other_greater = true;
    } else {
      other_greater = RowsGreaterThan(base_rel, x) +
                          RowsGreaterThan(other_adds, x) -
                          RowsGreaterThan(other_dels, x) >
                      0;
    }
    bool a_less = in_a ? other_greater : !other_greater;
    return a_less ? -1 : 1;
  }
  return 0;
}

}  // namespace kbt
