#ifndef KBT_EXEC_CNF_CACHE_H_
#define KBT_EXEC_CNF_CACHE_H_

/// \file
/// A domain-keyed cache of frozen CNF prefixes, shared across the worlds of one
/// τ call.
///
/// PR 3's GroundingCache shares the *circuit* of φ between worlds with equal
/// active domains, but every world still re-runs the Tseitin transformation:
/// one AddClause per gate, each with its sort/dedup pass and root-level unit
/// propagation. That encoding is itself a pure function of (φ, B) — the member
/// database contributes nothing to it — so the encoded solver state can be
/// computed once and *forked* into per-world solvers.
///
/// A FrozenCnf bundles the shared grounding with a sat::Solver::Frozen
/// snapshot taken right after asserting the circuit root, plus the dense
/// atom-id → solver-var table the enumerator needs. Per world, the enumerator
/// calls Solver::InitFromFrozen (bulk copies of the flat clause arena and
/// flattened watcher lists) and layers only the world's phase hints, descent
/// constraints and blocking clauses on top — bit-identical to re-encoding from
/// scratch, minus the per-world encoding cost.
///
/// Like GroundingCache, one cache instance serves one sentence (the key is the
/// domain alone) and entries are computed exactly once under concurrency —
/// both properties come from the shared machinery in exec/once_cache.h.

#include <cstdint>
#include <memory>
#include <vector>

#include "base/status.h"
#include "exec/ground_cache.h"
#include "exec/once_cache.h"
#include "sat/solver.h"

namespace kbt::exec {

/// An immutable encoded prefix: the shared grounding, the solver state after
/// Tseitin-encoding and asserting its root, and the atom → solver-var table.
struct FrozenCnf {
  /// The grounding the prefix encodes (kept alive with the prefix; the
  /// enumerator borrows its circuit, atom table and mentioned-var set).
  std::shared_ptr<const CachedGrounding> grounding;
  /// Solver state right after `TseitinEncoder(circuit).Assert(root)` — the
  /// clause arena, watch lists and root-level trail, frozen at level 0.
  sat::Solver::Frozen prefix;
  /// Dense ground-atom id → solver variable (-1 when the atom has no var, i.e.
  /// is not mentioned by the root).
  std::vector<sat::Var> atom_var;
  /// Dense circuit-node id → solver literal (-1 = unencoded), the Tseitin
  /// encoder's table at freeze time. The enumerator seeds per-world branching
  /// phases for gate variables from it.
  std::vector<sat::Lit> node_lit;

  /// Heap bytes held: this struct, the prefix and the two tables, by
  /// capacity. The shared grounding is not counted: it is billed to the
  /// GroundingCache that owns it.
  size_t HeapBytes() const {
    return sizeof(*this) + prefix.HeapBytes() +
           atom_var.capacity() * sizeof(sat::Var) +
           node_lit.capacity() * sizeof(sat::Lit);
  }
};

/// Builds the frozen prefix of `sentence` over `domain`: grounds (through
/// `ground_cache` when non-null, so the circuit is shared with non-SAT
/// strategies of the same τ call), encodes into a scratch solver, freezes.
/// A grounding split into components gets an empty prefix (μ encodes each
/// component on its own). The single constructor for cache entries and
/// uncached builds alike.
StatusOr<std::shared_ptr<const FrozenCnf>> MakeFrozenCnf(
    const Formula& sentence, const std::vector<Value>& domain,
    const GrounderOptions& options, GroundingCache* ground_cache);

class CnfCache {
 public:
  using Stats = DomainKeyedOnceCache<FrozenCnf>::Stats;

  /// Returns the frozen CNF prefix of `sentence` over `domain`, building it on
  /// first use. Concurrent callers with the same domain block until the one
  /// build completes. `sentence` must be the same formula on every call — the
  /// cache key deliberately omits it. `ground_cache` (optional) supplies the
  /// shared grounding.
  StatusOr<std::shared_ptr<const FrozenCnf>> GetOrBuild(
      const Formula& sentence, const std::vector<Value>& domain,
      const GrounderOptions& options, GroundingCache* ground_cache) {
    return cache_.GetOrCompute(domain, [&] {
      return MakeFrozenCnf(sentence, domain, options, ground_cache);
    });
  }

  Stats stats() const { return cache_.stats(); }
  /// Number of distinct domains seen.
  size_t entries() const { return cache_.entries(); }
  /// Caps distinct cached domains with LRU eviction (0 = unbounded). Bounds
  /// growth under domain churn; lookups still return identical values.
  void set_max_entries(size_t n) { cache_.set_max_entries(n); }
  /// Bytes held by the cache's entries: each completed prefix's HeapBytes
  /// plus its domain key. The map and LRU nodes are not counted.
  size_t approx_bytes() const {
    return cache_.ApproxBytes([](const FrozenCnf& f) { return f.HeapBytes(); });
  }

 private:
  DomainKeyedOnceCache<FrozenCnf> cache_;
};

}  // namespace kbt::exec

#endif  // KBT_EXEC_CNF_CACHE_H_
