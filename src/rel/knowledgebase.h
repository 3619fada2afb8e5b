#ifndef KBT_REL_KNOWLEDGEBASE_H_
#define KBT_REL_KNOWLEDGEBASE_H_

/// \file
/// Knowledgebases: finite sets of databases on one schema.
///
/// A knowledgebase kb is the paper's data model for indefinite information: each
/// member database is one possible state of the world. Members are kept sorted and
/// deduplicated, so knowledgebases are canonical value types — two kbs are equal iff
/// they denote the same set of possible worlds.
///
/// Representation: one shared immutable base Database plus one WorldOverlay per
/// world (rel/overlay.h) — worlds that differ from the base by a handful of
/// tuples cost O(delta) memory, and canonicalization compares overlays in
/// O(delta) instead of databases in O(database). Canonicalization splits an
/// overlay sequence into maximal strictly increasing runs (n − 1 adjacent
/// comparisons; a single run, such as a decoded checkpoint, is kept as is)
/// and merges the runs pairwise, dropping duplicates: O(n log runs)
/// comparisons. τ's outputs that extend their input worlds only at new
/// relations skip even that (FromWorldOutputs). World(i) materializes one
/// member on demand. A kb is a plain immutable value: copies share the base
/// and the overlays' tuple buffers. See docs/worldset.md.

#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "rel/database.h"
#include "rel/overlay.h"

namespace kbt {

/// A canonical finite set of same-schema databases.
class Knowledgebase {
 public:
  /// The empty knowledgebase over the empty schema. Note an empty kb (no possible
  /// worlds, "inconsistent") differs from the singleton kb holding an empty database.
  Knowledgebase() = default;

  /// Empty knowledgebase over `schema`.
  explicit Knowledgebase(Schema schema) : schema_(std::move(schema)) {}

  /// Builds from databases; all must share one schema. Duplicates collapse.
  /// The smallest member (the first world in canonical order) becomes the
  /// shared base; members become overlays against it, with copy-on-write
  /// buffer sharing making the diff O(touched relations) per member.
  static StatusOr<Knowledgebase> FromDatabases(std::vector<Database> databases);

  /// Singleton knowledgebase.
  static Knowledgebase Singleton(Database db);

  /// Builds from a shared base plus one overlay per world (no world is ever
  /// flattened). Each overlay must satisfy the canonical invariants relative
  /// to `base` (rel/overlay.h); duplicates collapse. `base` must be non-null;
  /// the kb schema is the base's schema. Overlays already in canonical order
  /// are kept as they are, in one pass.
  static StatusOr<Knowledgebase> FromBaseAndOverlays(
      std::shared_ptr<const Database> base, std::vector<WorldOverlay> overlays);

  /// τ's result constructor: `outputs[first[i] .. first[i + 1])` are the
  /// worlds input world i maps to, as overlays of `base`, which extends
  /// input.base() by appending relations (`first` has input.size() + 1
  /// ascending entries, from 0 to outputs.size()). When every output keeps
  /// its input world's delta at every σ(input) position — the same storage,
  /// none changed, missing or extra — and `base` keeps input.base()'s
  /// relations there, outputs of different input worlds are already in input
  /// order: each world's own outputs are sorted and deduplicated, and no two
  /// input worlds are compared. The check costs O(total deltas) and reads no
  /// rows. Otherwise the outputs are canonicalized as FromBaseAndOverlays
  /// does.
  static StatusOr<Knowledgebase> FromWorldOutputs(
      const Knowledgebase& input, std::shared_ptr<const Database> base,
      std::vector<WorldOverlay> outputs, const std::vector<size_t>& first);

  const Schema& schema() const { return schema_; }
  /// Number of possible worlds.
  size_t size() const { return overlays_.size(); }
  bool empty() const { return overlays_.empty(); }

  /// Materializes world `i` (canonical order): a copy-on-write overlay
  /// application, O(touched relations).
  Database World(size_t i) const { return overlays_[i].ApplyTo(*base_); }

  /// The shared base (null iff the kb is empty).
  const std::shared_ptr<const Database>& base() const { return base_; }
  /// Per-world overlays in canonical order.
  const std::vector<WorldOverlay>& overlays() const { return overlays_; }

  /// The kb holding the worlds at `indices` (strictly ascending, in range).
  /// Shares the base; no re-canonicalization needed (a subsequence of a
  /// canonical sequence is canonical).
  Knowledgebase SelectWorlds(const std::vector<size_t>& indices) const;

  /// Approximate heap footprint: base + overlay tuple storage (buffers shared
  /// between base and overlays, or across worlds, counted once) plus overlay
  /// bookkeeping.
  size_t ApproxHeapBytes() const;

  /// Membership test.
  bool Contains(const Database& db) const;

  /// Set union of same-schema knowledgebases in one pass: overlays are moved
  /// when parts share the first non-empty part's base (pointer or value
  /// equality) and rebased via copy-on-write diff otherwise, then
  /// canonicalized once — each part arrives as one strictly increasing run,
  /// so the merge costs O(total · log parts) comparisons of O(delta) each.
  /// Parts that are empty (including default-schema empties) contribute
  /// nothing; an all-empty input yields an empty kb over the first part's
  /// schema.
  static StatusOr<Knowledgebase> UnionAll(std::vector<Knowledgebase> parts);

  /// The paper's ⊓: componentwise intersection of all members, as a singleton kb.
  /// ⊓ of an empty kb is the empty kb. Computed per touched relation as
  /// (base \ ∪dels) ∪ ∩adds — O(worlds × delta + touched base relations).
  Knowledgebase Glb() const;
  /// The paper's ⊔: componentwise union of all members, as a singleton kb.
  /// Computed per touched relation as (base \ ∩dels) ∪ ∪adds.
  Knowledgebase Lub() const;

  /// The paper's π: projects every member onto the listed relation symbols.
  StatusOr<Knowledgebase> ProjectTo(const std::vector<Symbol>& symbols) const;

  /// Extends every member to `super` (new relations empty). When `super`
  /// appends to the schema, the common case, the overlays keep their
  /// canonical order and the result's canonicalization is the one-pass check.
  StatusOr<Knowledgebase> ExtendTo(const Schema& super) const;

  /// Renders as "{ <db1>, <db2> }".
  std::string ToString() const;

  /// Equality. Shared or value-equal bases compare overlays in
  /// O(worlds × delta); distinct bases fall back to comparing materialized
  /// worlds.
  friend bool operator==(const Knowledgebase& a, const Knowledgebase& b);
  friend bool operator!=(const Knowledgebase& a, const Knowledgebase& b) {
    return !(a == b);
  }

 private:
  /// Brings overlays into the canonical (flat-order-consistent) sequence:
  /// kept as is when adjacent pairs are already strictly increasing, else
  /// its strictly increasing runs are merged, dropping duplicates.
  void Canonicalize();

  Schema schema_;
  /// Shared immutable base; null iff the kb has no worlds.
  std::shared_ptr<const Database> base_;
  /// One overlay per world, sorted by CompareWorldsOnBase, unique.
  std::vector<WorldOverlay> overlays_;
};

}  // namespace kbt

#endif  // KBT_REL_KNOWLEDGEBASE_H_
