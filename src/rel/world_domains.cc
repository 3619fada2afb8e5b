#include "rel/world_domains.h"

#include <algorithm>
#include <iterator>

namespace kbt {

WorldDomains::WorldDomains(const Database& base,
                           const std::vector<Value>& extra)
    : extra_(extra) {
  std::vector<Value> all;
  for (const Relation& r : base.relations()) r.CollectValues(&all);
  std::sort(all.begin(), all.end());
  for (size_t i = 0; i < all.size();) {
    size_t j = i + 1;
    while (j < all.size() && all[j] == all[i]) ++j;
    values_.push_back(all[i]);
    counts_.push_back(j - i);
    i = j;
  }
  std::sort(extra_.begin(), extra_.end());
  extra_.erase(std::unique(extra_.begin(), extra_.end()), extra_.end());
  std::set_union(values_.begin(), values_.end(), extra_.begin(), extra_.end(),
                 std::back_inserter(domain_));
}

uint64_t WorldDomains::Count(Value v) const {
  auto it = std::lower_bound(values_.begin(), values_.end(), v);
  if (it == values_.end() || *it != v) return 0;
  return counts_[static_cast<size_t>(it - values_.begin())];
}

bool WorldDomains::IsExtra(Value v) const {
  return std::binary_search(extra_.begin(), extra_.end(), v);
}

bool WorldDomains::Vanishes(const WorldOverlay& overlay, Value v) const {
  int64_t occurrences = static_cast<int64_t>(Count(v));
  for (const RelationDelta& d : overlay.deltas()) {
    for (Value x : d.adds.flat()) occurrences += x == v;
    for (Value x : d.dels.flat()) occurrences -= x == v;
  }
  return occurrences == 0;
}

const std::vector<Value>& WorldDomains::Of(const WorldOverlay& overlay,
                                           std::vector<Value>* own) const {
  uint64_t deleted = 0;
  for (const RelationDelta& d : overlay.deltas()) {
    deleted += d.dels.flat().size();
  }
  // Empty vectors allocate nothing: the usual world, which neither gains nor
  // loses a value, stops at the check below.
  std::vector<Value> gains, losses;
  for (const RelationDelta& d : overlay.deltas()) {
    for (Value v : d.adds.flat()) {
      if (Count(v) == 0 && !IsExtra(v)) gains.push_back(v);
    }
    for (Value v : d.dels.flat()) {
      // A value with more base occurrences than the overlay deletes in all
      // stays, whatever it deletes.
      if (Count(v) <= deleted && !IsExtra(v) && Vanishes(overlay, v)) {
        losses.push_back(v);
      }
    }
  }
  if (gains.empty() && losses.empty()) return domain_;
  std::sort(gains.begin(), gains.end());
  gains.erase(std::unique(gains.begin(), gains.end()), gains.end());
  std::sort(losses.begin(), losses.end());
  losses.erase(std::unique(losses.begin(), losses.end()), losses.end());
  // Gained values are in neither the base nor extra, so not in domain0.
  own->clear();
  own->reserve(domain_.size() + gains.size());
  std::set_difference(domain_.begin(), domain_.end(), losses.begin(),
                      losses.end(), std::back_inserter(*own));
  const size_t kept = own->size();
  own->insert(own->end(), gains.begin(), gains.end());
  std::inplace_merge(own->begin(), own->begin() + static_cast<ptrdiff_t>(kept),
                     own->end());
  return *own;
}

}  // namespace kbt
