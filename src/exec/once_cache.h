#ifndef KBT_EXEC_ONCE_CACHE_H_
#define KBT_EXEC_ONCE_CACHE_H_

/// \file
/// The exactly-once, domain-keyed cache shared by GroundingCache and
/// CnfCache.
///
/// Both follow the same concurrency discipline: entries are created
/// under a map lock but computed outside it, with a per-entry mutex giving
/// exactly-once computation — concurrent lookups of one key block until the
/// single computation finishes rather than recomputing redundantly, and
/// errors are cached like values. This header is the one implementation of
/// that discipline; the users supply only the value type and the build
/// function. One cache instance serves one sentence — the sentence is
/// deliberately not part of the key, which is the active domain alone.
///
/// Boundedness: a serving workload with a churning active domain (every
/// commit growing or shifting the domain) makes each lookup a fresh key, so
/// the map grows linearly with commits. The cache never evicts; ApproxBytes
/// meters everything it holds, so its owner can bound it in bytes (the
/// serving bank drops a sentence's whole entry over its byte budget).

#include <cstdint>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "base/status.h"
#include "rel/tuple.h"

namespace kbt::exec {

/// Hash of an active domain (sorted `std::vector<Value>`).
struct DomainHash {
  size_t operator()(const std::vector<Value>& domain) const {
    size_t seed = 0x517cc1b7;
    for (Value v : domain) seed = HashCombine(seed, v);
    return static_cast<size_t>(Mix64(seed));
  }
};

/// Exactly-once cache from an active domain (sorted `std::vector<Value>`) to
/// a shared immutable `V`.
template <typename V>
class DomainKeyedOnceCache {
 public:
  using Key = std::vector<Value>;

  DomainKeyedOnceCache() = default;
  DomainKeyedOnceCache(const DomainKeyedOnceCache&) = delete;
  DomainKeyedOnceCache& operator=(const DomainKeyedOnceCache&) = delete;

  struct Stats {
    uint64_t hits = 0;    ///< Lookups served by an existing entry.
    uint64_t misses = 0;  ///< Lookups that created (and computed) an entry.
  };

  /// Returns the cached value for `key`, computing it via `build` on first
  /// use. `build` is `StatusOr<std::shared_ptr<const V>>()`; a failed build is
  /// cached too (repeat lookups return the same status without recomputing).
  template <typename BuildFn>
  StatusOr<std::shared_ptr<const V>> GetOrCompute(const Key& key,
                                                   BuildFn&& build) {
    std::shared_ptr<Entry> entry;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = map_.find(key);
      if (it == map_.end()) {
        ++stats_.misses;
        it = map_.emplace(key, std::make_shared<Entry>()).first;
      } else {
        ++stats_.hits;
      }
      entry = it->second;
    }
    // The first thread to take the entry lock computes; latecomers wait on
    // the same lock and find the result. The map lock is never held while
    // computing.
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    if (!entry->done.load(std::memory_order_relaxed)) {
      StatusOr<std::shared_ptr<const V>> built = build();
      if (built.ok()) {
        entry->value = std::move(*built);
      } else {
        entry->status = built.status();
      }
      // Release pairs with ApproxBytes's acquire: a reader that observes
      // done=true also observes the completed value.
      entry->done.store(true, std::memory_order_release);
    }
    if (!entry->status.ok()) return entry->status;
    return entry->value;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  /// Number of distinct keys seen.
  size_t entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

  /// Heap bytes the cache holds: the map's bucket array and, per key, its
  /// map node, its domain array and its Entry block, plus cost(value) for
  /// each completed entry. Entries still computing (or that failed) add no
  /// value bytes. `cost` must not lock this cache.
  template <typename CostFn>
  size_t ApproxBytes(CostFn&& cost) const {
    std::lock_guard<std::mutex> lock(mu_);
    // One bucket has no array: the map keeps it inline.
    size_t total =
        map_.bucket_count() > 1 ? map_.bucket_count() * sizeof(void*) : 0;
    for (const auto& [key, entry] : map_) {
      total += kNodeBytes + kEntryBlockBytes + key.capacity() * sizeof(Value);
      if (entry->done.load(std::memory_order_acquire) && entry->status.ok() &&
          entry->value != nullptr) {
        total += cost(*entry->value);
      }
    }
    return total;
  }

 private:
  /// One per distinct key. The entry mutex serializes the single
  /// computation; `done` flips exactly once, after which value/status are
  /// immutable.
  struct Entry {
    std::mutex mu;
    std::atomic<bool> done{false};
    Status status;
    std::shared_ptr<const V> value;
  };
  using Map = std::unordered_map<Key, std::shared_ptr<Entry>, DomainHash>;

  /// A map node: the next-node link, the key and entry handle, and the
  /// hash the map caches beside them (DomainHash may throw).
  static constexpr size_t kNodeBytes =
      sizeof(void*) + sizeof(typename Map::value_type) + sizeof(size_t);
  /// make_shared's one block: the control block (a vtable pointer and the
  /// two reference counts) followed by the Entry.
  static constexpr size_t kEntryBlockBytes =
      sizeof(void*) + 2 * sizeof(int) + sizeof(Entry);

  mutable std::mutex mu_;
  Map map_;
  Stats stats_;
};

}  // namespace kbt::exec

#endif  // KBT_EXEC_ONCE_CACHE_H_
