#ifndef KBT_LOGIC_CIRCUIT_H_
#define KBT_LOGIC_CIRCUIT_H_

/// \file
/// Hash-consed boolean circuits (AND/OR/NOT/VAR/CONST DAGs) over a flat node
/// arena.
///
/// The grounder lowers a first-order sentence over a finite domain into a circuit
/// whose variables are ground-atom ids; the Tseitin encoder then lowers the circuit
/// to CNF. Hash-consing keeps repeated subformulas (ubiquitous after quantifier
/// expansion) shared, and constructors fold constants, flatten nested same-kind
/// gates, and collapse double negation.
///
/// Storage is arena-based: node records live in one contiguous array and the child
/// lists of n-ary And/Or gates are ranges of a single shared child buffer, so
/// building and walking a million-node grounding performs no per-node heap
/// allocation. The hash-consing table is open-addressed (linear probing over a
/// power-of-two id table) — no `unordered_map` node allocation on the grounding
/// hot path.
///
/// What only interning needs — the table, each node's hash, the var-node map
/// and the gate scratch — can be released once a circuit is complete (Seal).
/// A cached grounding is sealed before it is published (exec/ground_cache.h),
/// so the grounding caches keep only the nodes and their children.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "base/hash.h"

namespace kbt {

/// A boolean circuit with structural sharing. Node ids are dense ints; ids 0 and 1
/// are reserved for the constants false and true.
class Circuit {
 public:
  enum class NodeKind : uint8_t { kConst, kVar, kNot, kAnd, kOr };

  /// A read-only view of one node. `children` points into the circuit's shared
  /// child buffer: the view stays valid until the next node is created, so read
  /// what you need before interning further nodes (walks that only inspect an
  /// already-built circuit — Tseitin encoding, evaluation, printing — are safe
  /// throughout).
  struct Node {
    NodeKind kind;
    /// kVar: external variable id. kConst: 0 or 1.
    int var = 0;
    /// kNot: one child; kAnd/kOr: two or more children (sorted, deduplicated).
    std::span<const int> children;
  };

  Circuit();

  /// Constant nodes.
  int FalseNode() const { return 0; }
  int TrueNode() const { return 1; }

  /// Variable node for external variable `var_id` (hash-consed; ids are expected
  /// to be small and dense, as produced by AtomIndex).
  int VarNode(int var_id);

  /// Negation; folds constants and double negation.
  int NotNode(int child);

  /// Conjunction; folds constants, flattens nested ANDs, dedups children,
  /// short-circuits complementary literals to false.
  int AndNode(std::vector<int> children);

  /// Disjunction (dual simplifications).
  int OrNode(std::vector<int> children);

  /// a → b as ¬a ∨ b.
  int ImpliesNode(int a, int b) { return OrNode({NotNode(a), b}); }
  /// a ↔ b as (a → b) ∧ (b → a); children are shared, not re-expanded.
  int IffNode(int a, int b) {
    return AndNode({ImpliesNode(a, b), ImpliesNode(b, a)});
  }

  /// View of node `id` (see the Node lifetime note above).
  Node node(int id) const {
    const NodeData& n = nodes_[static_cast<size_t>(id)];
    return Node{n.kind, n.var,
                std::span<const int>(child_arena_.data() + n.child_begin,
                                     n.child_count)};
  }
  /// Total number of nodes (monotone over the circuit's lifetime).
  size_t size() const { return nodes_.size(); }

  /// Evaluates the subcircuit rooted at `root` under `var_value` (memoized).
  bool Evaluate(int root, const std::function<bool(int)>& var_value) const;

  /// Evaluates *every* node reachable from `root` under `var_value` — no
  /// gate short-circuiting — into `memo` (resized to size(); 0 = unreached,
  /// 1 = false, 2 = true). The SAT enumerator uses this to seed branching
  /// phases for the Tseitin gate variables with their value under a world's
  /// default assignment, so the first model search walks toward the nearest
  /// candidate instead of wandering through unconstrained gate decisions.
  void EvaluateAllInto(int root, const std::function<bool(int)>& var_value,
                       std::vector<int8_t>* memo) const;

  /// External variable ids reachable from `root`, sorted and deduplicated.
  std::vector<int> CollectVars(int root) const;

  /// Debug rendering of the subcircuit at `root` (s-expression).
  std::string ToString(int root) const;

  /// Releases the hash-consing state and the node arrays' spare capacity.
  /// Every read above answers as before. Interning after Seal first rebuilds
  /// the table from the nodes, so ids stay hash-consed either way. Seal moves
  /// the child buffer: no Node::children span taken before it stays valid.
  void Seal();

  /// Heap bytes the circuit holds, from its arrays' capacities.
  size_t HeapBytes() const;

 private:
  /// Flat node record: children live in child_arena_[child_begin, +child_count).
  struct NodeData {
    NodeKind kind;
    int32_t var = 0;
    uint32_t child_begin = 0;
    uint32_t child_count = 0;
  };

  static uint64_t NodeHash(NodeKind kind, int var, std::span<const int> children);
  bool NodeEquals(int id, NodeKind kind, int var,
                  std::span<const int> children) const;
  /// Returns the id of the structurally identical node, interning a new one if
  /// absent. `children` is copied into the shared child buffer on insert.
  int Intern(NodeKind kind, int var, std::span<const int> children);
  /// Builds a table that holds every node below ~70% load, recomputing the
  /// node hashes first when there are none (a new or sealed circuit).
  void Reindex();
  /// Shared gate-simplification body for AndNode/OrNode.
  int GateNode(NodeKind kind, const std::vector<int>& children,
               int absorbing_const, int identity_const);

  std::vector<NodeData> nodes_;
  std::vector<int> child_arena_;
  /// Parallel to nodes_ (rehash without recompute); empty once sealed.
  std::vector<uint64_t> hashes_;
  /// Open-addressed hash-cons table: node ids, kEmptySlot when free. Power-of-two
  /// size, linear probing, grown at ~70% load. Empty only once sealed.
  std::vector<int32_t> table_;
  size_t table_mask_ = 0;
  /// Dense var-id → node-id map (ground atom ids are dense by construction).
  std::vector<int> var_nodes_;
  std::vector<int> gate_scratch_;  ///< Flatten/dedup buffer for GateNode.

  static constexpr int32_t kEmptySlot = -1;
};

}  // namespace kbt

#endif  // KBT_LOGIC_CIRCUIT_H_
