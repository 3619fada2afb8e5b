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
/// an unbounded map grows linearly with commits. set_max_entries caps the
/// table with LRU eviction — borrowers keep their shared_ptr, so eviction
/// never invalidates a computation in flight — and ApproxBytes lets owners
/// budget by memory rather than entry count.

#include <cstdint>
#include <atomic>
#include <list>
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
    uint64_t evictions = 0;  ///< Entries dropped by the max_entries LRU cap.
  };

  /// Caps the number of cached keys (0 = unbounded, the default). Beyond
  /// the cap the least-recently-used entry is dropped when a new one is
  /// created. Setting a cap only changes *retention*: every lookup still
  /// returns the same value it would have computed uncached.
  void set_max_entries(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    max_entries_ = n;
  }

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
        if (max_entries_ > 0 && map_.size() >= max_entries_) {
          // Evict the coldest key. A borrower mid-computation keeps its
          // own shared_ptr<Entry>; only the cache's reference goes away.
          auto victim = map_.find(*lru_.back());
          lru_.pop_back();
          map_.erase(victim);
          ++stats_.evictions;
        }
        it = map_.emplace(key, std::make_shared<Entry>()).first;
        lru_.push_front(&it->first);
        it->second->lru_pos = lru_.begin();
      } else {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second->lru_pos);
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

  /// Estimated bytes held by completed entries, as Σ cost(value). Entries
  /// still computing (or that failed) count zero. `cost` must not lock this
  /// cache.
  template <typename CostFn>
  size_t ApproxBytes(CostFn&& cost) const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t total = 0;
    for (const auto& [key, entry] : map_) {
      total += key.capacity() * sizeof(Value);
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
    typename std::list<const Key*>::iterator lru_pos;
  };

  mutable std::mutex mu_;
  size_t max_entries_ = 0;
  std::unordered_map<Key, std::shared_ptr<Entry>, DomainHash> map_;
  /// The map's keys in recency order; back() is the eviction candidate.
  /// Unordered-map nodes never move, so the pointers stay valid until their
  /// entry is erased.
  std::list<const Key*> lru_;
  Stats stats_;
};

}  // namespace kbt::exec

#endif  // KBT_EXEC_ONCE_CACHE_H_
