#ifndef KBT_REL_WORLD_DOMAINS_H_
#define KBT_REL_WORLD_DOMAINS_H_

/// \file
/// Each world's active domain, read off the shared base and the world's
/// overlay instead of a materialized world.
///
/// A knowledgebase's worlds differ from its base by a few tuples, and those
/// rarely bring a new value or delete a value's last occurrence. WorldDomains
/// counts the occurrences of every base value once. World w's domain is then
///
///   {v : count(v) + (occurrences of v in w's adds)
///                 − (occurrences of v in w's dels) > 0} ∪ extra,
///
/// where `extra` holds values every world's domain includes (a sentence's
/// constants). When that is the base's domain, which is the usual case, Of
/// returns the shared vector and allocates nothing.

#include <cstdint>
#include <vector>

#include "rel/database.h"
#include "rel/overlay.h"

namespace kbt {

class WorldDomains {
 public:
  /// Counts the values of every relation of `base`. `extra` may be in any
  /// order and repeat.
  WorldDomains(const Database& base, const std::vector<Value>& extra);

  /// domain0: the base's values ∪ extra, sorted.
  const std::vector<Value>& base_domain() const { return domain_; }

  /// The domain of the world `overlay` denotes over the base: its values ∪
  /// extra, sorted, equal to overlay.ApplyTo(base).ActiveDomain() ∪ extra.
  /// Returns base_domain() itself when the two are equal; otherwise fills
  /// `*own` and returns it. `overlay` must be canonical against the base.
  const std::vector<Value>& Of(const WorldOverlay& overlay,
                               std::vector<Value>* own) const;

 private:
  /// Occurrences of `v` over all base relations (0 when absent).
  uint64_t Count(Value v) const;
  bool IsExtra(Value v) const;
  /// True when the world's occurrences of `v` drop to 0: its base count
  /// plus its occurrences in the overlay's adds minus those in its dels.
  bool Vanishes(const WorldOverlay& overlay, Value v) const;

  std::vector<Value> values_;     ///< Distinct base values, sorted.
  std::vector<uint64_t> counts_;  ///< counts_[i]: occurrences of values_[i].
  std::vector<Value> extra_;      ///< Sorted, unique.
  std::vector<Value> domain_;     ///< values_ ∪ extra_, sorted.
};

}  // namespace kbt

#endif  // KBT_REL_WORLD_DOMAINS_H_
