#include "base/interner.h"

#include <cassert>

namespace kbt {

Symbol Interner::Intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  Symbol id = static_cast<Symbol>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

bool Interner::Lookup(std::string_view name, Symbol* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(name);
  if (it == index_.end()) return false;
  *out = it->second;
  return true;
}

const std::string& Interner::NameOf(Symbol id) const {
  std::lock_guard<std::mutex> lock(mu_);
  assert(id < names_.size());
  return names_[id];
}

size_t Interner::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_.size();
}

Interner& Names() {
  static Interner* interner = new Interner();
  return *interner;
}

}  // namespace kbt
