#include "serve/cache_bank.h"

#include <algorithm>
#include <utility>

#include "logic/parser.h"
#include "logic/printer.h"

namespace kbt::serve {

QueryCacheBank::QueryCacheBank(size_t capacity, size_t entry_byte_budget)
    : capacity_(std::max<size_t>(1, capacity)),
      entry_byte_budget_(entry_byte_budget) {}

StatusOr<std::shared_ptr<SentenceCaches>> QueryCacheBank::Get(
    std::string_view sentence_text) {
  // Parse and canonicalize outside the lock — the lock only guards the map.
  KBT_ASSIGN_OR_RETURN(Formula parsed, ParseSentence(sentence_text));
  std::string key = kbt::ToString(parsed);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Budget check on the hot entry: ApproxBytes walks the entry's domain
    // maps (their own locks; never held while this bank lock is taken
    // elsewhere, so the order bank → cache is acyclic). Over budget, the
    // entry is dropped and rebuilt fresh — in-flight borrowers keep theirs.
    if (entry_byte_budget_ > 0 &&
        it->second.caches->ApproxBytes() > entry_byte_budget_) {
      ++budget_evictions_;
      lru_.erase(it->second.lru_pos);
      entries_.erase(it);
    } else {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return it->second.caches;
    }
  }
  ++misses_;
  if (entries_.size() >= capacity_) {
    entries_.erase(lru_.back());  // In-flight borrowers keep their shared_ptr.
    lru_.pop_back();
  }
  auto caches = std::make_shared<SentenceCaches>();
  caches->sentence = std::move(parsed);
  lru_.push_front(key);
  entries_.emplace(std::move(key), Slot{caches, lru_.begin()});
  return caches;
}

uint64_t QueryCacheBank::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t QueryCacheBank::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

size_t QueryCacheBank::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t QueryCacheBank::budget_evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_evictions_;
}

}  // namespace kbt::serve
