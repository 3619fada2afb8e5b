#ifndef KBT_EXEC_GROUND_CACHE_H_
#define KBT_EXEC_GROUND_CACHE_H_

/// \file
/// A domain-keyed cache of groundings, shared across the worlds of one τ call.
///
/// Grounding a sentence φ over an active domain B is a pure function of (φ, B) —
/// the member database contributes only B (its values plus φ's constants) and the
/// per-atom default values. Worlds of a knowledgebase frequently share B exactly
/// (the 2^n-world constructions of Theorem 5.1 all do), so τ grounds once per
/// distinct domain and each world re-derives only its defaults and phase hints.
/// The cached Grounding (circuit + atom table + the root's mentioned variables)
/// is immutable after construction and read concurrently by all workers.
///
/// Keying, exactly-once computation and error caching live in
/// exec/once_cache.h (shared with CnfCache); this wrapper supplies the value
/// type and the grounding build.

#include <cstdint>
#include <memory>
#include <vector>

#include "base/status.h"
#include "exec/once_cache.h"
#include "logic/grounder.h"

namespace kbt::exec {

/// One atom-disjoint part of a grounding's root: a child of the root AND, or
/// the AND of several children that share atoms.
struct GroundingComponent {
  int root = 0;            ///< Circuit node of the part.
  std::vector<int> atoms;  ///< Sorted atom ids the part mentions.
};

/// CachedGrounding::key_bit of an atom the root does not mention.
inline constexpr uint32_t kNoKeyBit = 0xffffffffu;

/// An immutable grounding plus the precomputed mentioned-variable set
/// (CollectVars of the root) every strategy needs right after grounding.
struct CachedGrounding {
  Grounding grounding;
  std::vector<int> mentioned;  ///< Sorted external var ids reachable from root.
  /// The root's conjuncts grouped into atom-disjoint components, ordered by
  /// their first child. Empty when the root is one component (not an AND, or
  /// all its children connected through shared atoms); τ then runs μ on the
  /// whole root (docs/exec.md, "World classes").
  std::vector<GroundingComponent> components;
  /// Where each atom sits in a world's class key, by atom id: the key holds
  /// each part's atoms in turn (the whole root's `mentioned`, or each
  /// component's `atoms`), each part starting on a 64-bit word boundary.
  /// kNoKeyBit for an atom the root does not mention.
  std::vector<uint32_t> key_bit;
  /// 64-bit words of a key.
  size_t key_words = 0;

  /// Heap bytes held: this struct (cache entries are heap-allocated) and
  /// every array it owns, by capacity.
  size_t HeapBytes() const;
};

/// Grounds `sentence` over `domain` and wraps the result in the immutable
/// CachedGrounding shape (mentioned vars, components and key layout
/// precomputed). The
/// single constructor for cache entries and for uncached per-call groundings
/// alike, so both paths precompute the same fields.
StatusOr<std::shared_ptr<const CachedGrounding>> MakeCachedGrounding(
    const Formula& sentence, const std::vector<Value>& domain,
    const GrounderOptions& options);

class GroundingCache {
 public:
  using Stats = DomainKeyedOnceCache<CachedGrounding>::Stats;

  /// Returns the grounding of `sentence` over `domain`, computing it on first
  /// use. Concurrent callers with the same domain block until the one grounding
  /// completes (grounding twice would waste exactly the work the cache exists
  /// to save). `sentence` must be the same formula on every call — the cache
  /// key deliberately omits it.
  StatusOr<std::shared_ptr<const CachedGrounding>> GetOrGround(
      const Formula& sentence, const std::vector<Value>& domain,
      const GrounderOptions& options) {
    return cache_.GetOrCompute(domain, [&] {
      return MakeCachedGrounding(sentence, domain, options);
    });
  }

  Stats stats() const { return cache_.stats(); }
  /// Number of distinct domains seen.
  size_t entries() const { return cache_.entries(); }
  /// Caps distinct cached domains with LRU eviction (0 = unbounded). Bounds
  /// growth under domain churn; lookups still return identical values.
  void set_max_entries(size_t n) { cache_.set_max_entries(n); }
  /// Bytes held by the cache's entries: each completed grounding's
  /// HeapBytes plus its domain key. The map and LRU nodes are not counted.
  size_t approx_bytes() const {
    return cache_.ApproxBytes(
        [](const CachedGrounding& g) { return g.HeapBytes(); });
  }

 private:
  DomainKeyedOnceCache<CachedGrounding> cache_;
};

}  // namespace kbt::exec

#endif  // KBT_EXEC_GROUND_CACHE_H_
