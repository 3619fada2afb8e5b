#ifndef KBT_BASE_INTERNER_H_
#define KBT_BASE_INTERNER_H_

/// \file
/// String interning for domain elements and relation symbols.
///
/// The paper's language L is built from countable sets A (domain elements) and R
/// (relation symbols). We intern both kinds of names into dense 32-bit ids so that
/// tuples, relations and ground atoms compare and hash in O(1) per component.
///
/// A single process-wide interner (Names()) is used by default: ids are stable for the
/// lifetime of the process, which makes databases built independently comparable. The
/// class itself is reusable for isolated universes in tests.

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace kbt {

/// A dense id for an interned name. Value 0 is a valid id (the first interned name).
using Symbol = uint32_t;

/// Bidirectional map between strings and dense Symbol ids. Thread-safe.
class Interner {
 public:
  Interner() = default;
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  /// Returns the id for `name`, interning it on first use.
  Symbol Intern(std::string_view name);

  /// Returns the id for `name` if already interned, otherwise -1 cast to Symbol-width
  /// sentinel via found=false.
  bool Lookup(std::string_view name, Symbol* out) const;

  /// Returns the string for `id`. `id` must have been produced by this interner.
  const std::string& NameOf(Symbol id) const;

  /// Number of interned names.
  size_t size() const;

 private:
  mutable std::mutex mu_;
  /// Keyed by views of `names_`' own strings, so a lookup by string_view
  /// builds no string.
  std::unordered_map<std::string_view, Symbol> index_;
  /// Deque, not vector: NameOf hands out references, and `index_` views,
  /// that must survive concurrent interning from executor workers (deque
  /// never relocates existing elements on growth).
  std::deque<std::string> names_;
};

/// The process-wide interner used by all kbt value and relation names.
Interner& Names();

/// Convenience: intern `name` in the process-wide interner.
inline Symbol Name(std::string_view name) { return Names().Intern(name); }

/// Convenience: the string for `id` in the process-wide interner.
inline const std::string& NameOf(Symbol id) { return Names().NameOf(id); }

}  // namespace kbt

#endif  // KBT_BASE_INTERNER_H_
