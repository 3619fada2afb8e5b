#include "logic/circuit.h"

#include <algorithm>
#include <cassert>

namespace kbt {

Circuit::Circuit() {
  nodes_.push_back(NodeData{NodeKind::kConst, 0, 0, 0});  // id 0: false
  nodes_.push_back(NodeData{NodeKind::kConst, 1, 0, 0});  // id 1: true
  Reindex();
}

uint64_t Circuit::NodeHash(NodeKind kind, int var, std::span<const int> children) {
  uint64_t seed = HashCombine(static_cast<size_t>(kind) * 0x9e3779b97f4a7c15ULL,
                              static_cast<size_t>(var));
  for (int c : children) seed = HashCombine(seed, static_cast<size_t>(c));
  return Mix64(seed);
}

bool Circuit::NodeEquals(int id, NodeKind kind, int var,
                         std::span<const int> children) const {
  const NodeData& n = nodes_[static_cast<size_t>(id)];
  if (n.kind != kind || n.var != var || n.child_count != children.size()) {
    return false;
  }
  return std::equal(children.begin(), children.end(),
                    child_arena_.data() + n.child_begin);
}

void Circuit::Reindex() {
  if (hashes_.size() != nodes_.size()) {  // New, or sealed.
    // Constants are never looked up through the table.
    hashes_.assign(nodes_.size(), 0);
    for (size_t id = 2; id < nodes_.size(); ++id) {
      const NodeData& n = nodes_[id];
      hashes_[id] = NodeHash(
          n.kind, n.var,
          std::span<const int>(child_arena_.data() + n.child_begin,
                               n.child_count));
    }
  }
  size_t slots = 256;
  while (nodes_.size() * 10 > slots * 7) slots *= 2;
  table_.assign(slots, kEmptySlot);
  table_mask_ = slots - 1;
  for (size_t id = 2; id < nodes_.size(); ++id) {
    size_t slot = hashes_[id] & table_mask_;
    while (table_[slot] != kEmptySlot) slot = (slot + 1) & table_mask_;
    table_[slot] = static_cast<int32_t>(id);
  }
}

void Circuit::Seal() {
  // Move-assigning a fresh vector frees the block; `= {}` would keep it.
  table_ = std::vector<int32_t>();
  table_mask_ = 0;
  hashes_ = std::vector<uint64_t>();
  var_nodes_ = std::vector<int>();
  gate_scratch_ = std::vector<int>();
  nodes_.shrink_to_fit();
  child_arena_.shrink_to_fit();
}

size_t Circuit::HeapBytes() const {
  return nodes_.capacity() * sizeof(NodeData) +
         child_arena_.capacity() * sizeof(int) +
         hashes_.capacity() * sizeof(uint64_t) +
         table_.capacity() * sizeof(int32_t) +
         var_nodes_.capacity() * sizeof(int) +
         gate_scratch_.capacity() * sizeof(int);
}

int Circuit::Intern(NodeKind kind, int var, std::span<const int> children) {
  if (table_.empty()) Reindex();  // Sealed: only reads were expected.
  uint64_t hash = NodeHash(kind, var, children);
  size_t slot = hash & table_mask_;
  while (table_[slot] != kEmptySlot) {
    int32_t id = table_[slot];
    if (hashes_[static_cast<size_t>(id)] == hash &&
        NodeEquals(id, kind, var, children)) {
      return id;
    }
    slot = (slot + 1) & table_mask_;
  }
  int id = static_cast<int>(nodes_.size());
  NodeData n;
  n.kind = kind;
  n.var = var;
  n.child_begin = static_cast<uint32_t>(child_arena_.size());
  n.child_count = static_cast<uint32_t>(children.size());
  child_arena_.insert(child_arena_.end(), children.begin(), children.end());
  nodes_.push_back(n);
  hashes_.push_back(hash);
  table_[slot] = static_cast<int32_t>(id);
  // Keep the load factor below ~0.7 (constants never enter the table).
  if ((nodes_.size() * 10) > (table_.size() * 7)) Reindex();
  return id;
}

int Circuit::VarNode(int var_id) {
  assert(var_id >= 0);
  size_t idx = static_cast<size_t>(var_id);
  if (idx >= var_nodes_.size()) var_nodes_.resize(idx + 1, -1);
  if (var_nodes_[idx] >= 0) return var_nodes_[idx];
  int id = Intern(NodeKind::kVar, var_id, {});
  var_nodes_[idx] = id;
  return id;
}

int Circuit::NotNode(int child) {
  if (child == FalseNode()) return TrueNode();
  if (child == TrueNode()) return FalseNode();
  const NodeData& n = nodes_[static_cast<size_t>(child)];
  if (n.kind == NodeKind::kNot) return child_arena_[n.child_begin];
  int c = child;
  return Intern(NodeKind::kNot, 0, std::span<const int>(&c, 1));
}

int Circuit::GateNode(NodeKind kind, const std::vector<int>& children,
                      int absorbing_const, int identity_const) {
  // Nested gate calls always complete before the enclosing call starts its own
  // body, so one scratch buffer suffices (no recursion through here).
  std::vector<int>& flat = gate_scratch_;
  flat.clear();
  for (int c : children) {
    if (c == identity_const) continue;
    if (c == absorbing_const) return absorbing_const;
    const NodeData& n = nodes_[static_cast<size_t>(c)];
    if (n.kind == kind) {
      flat.insert(flat.end(), child_arena_.begin() + n.child_begin,
                  child_arena_.begin() + n.child_begin + n.child_count);
    } else {
      flat.push_back(c);
    }
  }
  std::sort(flat.begin(), flat.end());
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  // x ∧ ¬x → false; x ∨ ¬x → true.
  for (int c : flat) {
    const NodeData& n = nodes_[static_cast<size_t>(c)];
    if (n.kind == NodeKind::kNot &&
        std::binary_search(flat.begin(), flat.end(),
                           child_arena_[n.child_begin])) {
      return absorbing_const;
    }
  }
  if (flat.empty()) return identity_const;
  if (flat.size() == 1) return flat[0];
  return Intern(kind, 0, flat);
}

int Circuit::AndNode(std::vector<int> children) {
  return GateNode(NodeKind::kAnd, children, FalseNode(), TrueNode());
}

int Circuit::OrNode(std::vector<int> children) {
  return GateNode(NodeKind::kOr, children, TrueNode(), FalseNode());
}

bool Circuit::Evaluate(int root, const std::function<bool(int)>& var_value) const {
  // Iterative DFS with a dense memo (0 = unknown, 1 = false, 2 = true): no
  // recursion and no hash-map allocation on the hot path. Each gate frame keeps
  // a child cursor so a revisit resumes where the last scan stopped — wide
  // quantifier-expansion gates stay O(children), not O(children²).
  std::vector<int8_t> memo(nodes_.size(), 0);
  struct Frame {
    int id;
    uint32_t next_child;
  };
  std::vector<Frame> stack{{root, 0}};
  while (!stack.empty()) {
    int id = stack.back().id;
    size_t idx = static_cast<size_t>(id);
    if (memo[idx] != 0) {
      stack.pop_back();
      continue;
    }
    const NodeData& n = nodes_[idx];
    switch (n.kind) {
      case NodeKind::kConst:
        memo[idx] = n.var == 1 ? 2 : 1;
        stack.pop_back();
        break;
      case NodeKind::kVar:
        memo[idx] = var_value(n.var) ? 2 : 1;
        stack.pop_back();
        break;
      case NodeKind::kNot: {
        int c = child_arena_[n.child_begin];
        int8_t cv = memo[static_cast<size_t>(c)];
        if (cv == 0) {
          stack.push_back({c, 0});
        } else {
          memo[idx] = cv == 2 ? 1 : 2;
          stack.pop_back();
        }
        break;
      }
      case NodeKind::kAnd:
      case NodeKind::kOr: {
        // And: a false child is decisive; Or: a true child is (short-circuit).
        int8_t decisive = n.kind == NodeKind::kAnd ? 1 : 2;
        bool decided = false;
        int pending = -1;
        uint32_t i = stack.back().next_child;
        for (; i < n.child_count; ++i) {
          int c = child_arena_[n.child_begin + i];
          int8_t cv = memo[static_cast<size_t>(c)];
          if (cv == decisive) {
            decided = true;
            break;
          }
          if (cv == 0) {
            pending = c;  // Cursor stays here; re-read after the child resolves.
            break;
          }
        }
        stack.back().next_child = i;
        if (decided) {
          memo[idx] = decisive;
          stack.pop_back();
        } else if (pending >= 0) {
          stack.push_back({pending, 0});
        } else {
          memo[idx] = decisive == 1 ? 2 : 1;  // All children neutral.
          stack.pop_back();
        }
        break;
      }
    }
  }
  return memo[static_cast<size_t>(root)] == 2;
}

void Circuit::EvaluateAllInto(int root, const std::function<bool(int)>& var_value,
                              std::vector<int8_t>* memo) const {
  // Same DFS as Evaluate, but gates never short-circuit: every reachable node
  // gets a value, which is what phase seeding needs (the Tseitin encoder gave
  // every reachable node a literal).
  memo->assign(nodes_.size(), 0);
  struct Frame {
    int id;
    uint32_t next_child;
    /// Whether a decisive child (false for And, true for Or) was seen among
    /// children already scanned. Lives in the frame: the scan suspends and
    /// resumes across child evaluations, and the cursor never re-reads
    /// children it already passed.
    bool saw_decisive;
  };
  std::vector<Frame> stack{{root, 0, false}};
  while (!stack.empty()) {
    int id = stack.back().id;
    size_t idx = static_cast<size_t>(id);
    if ((*memo)[idx] != 0) {
      stack.pop_back();
      continue;
    }
    const NodeData& n = nodes_[idx];
    switch (n.kind) {
      case NodeKind::kConst:
        (*memo)[idx] = n.var == 1 ? 2 : 1;
        stack.pop_back();
        break;
      case NodeKind::kVar:
        (*memo)[idx] = var_value(n.var) ? 2 : 1;
        stack.pop_back();
        break;
      case NodeKind::kNot: {
        int c = child_arena_[n.child_begin];
        int8_t cv = (*memo)[static_cast<size_t>(c)];
        if (cv == 0) {
          stack.push_back({c, 0, false});
        } else {
          (*memo)[idx] = cv == 2 ? 1 : 2;
          stack.pop_back();
        }
        break;
      }
      case NodeKind::kAnd:
      case NodeKind::kOr: {
        int8_t decisive = n.kind == NodeKind::kAnd ? 1 : 2;
        int pending = -1;
        uint32_t i = stack.back().next_child;
        for (; i < n.child_count; ++i) {
          int c = child_arena_[n.child_begin + i];
          int8_t cv = (*memo)[static_cast<size_t>(c)];
          if (cv == 0) {
            pending = c;  // Cursor stays here; re-read after the child resolves.
            break;
          }
          if (cv == decisive) stack.back().saw_decisive = true;  // No skip.
        }
        stack.back().next_child = i;
        if (pending >= 0) {
          stack.push_back({pending, 0, false});
        } else {
          (*memo)[idx] =
              stack.back().saw_decisive ? decisive : (decisive == 1 ? 2 : 1);
          stack.pop_back();
        }
        break;
      }
    }
  }
}

std::vector<int> Circuit::CollectVars(int root) const {
  std::vector<int> out;
  std::vector<int> stack{root};
  std::vector<bool> seen(nodes_.size(), false);
  while (!stack.empty()) {
    int id = stack.back();
    stack.pop_back();
    if (seen[static_cast<size_t>(id)]) continue;
    seen[static_cast<size_t>(id)] = true;
    const NodeData& n = nodes_[static_cast<size_t>(id)];
    if (n.kind == NodeKind::kVar) out.push_back(n.var);
    for (uint32_t i = 0; i < n.child_count; ++i) {
      stack.push_back(child_arena_[n.child_begin + i]);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string Circuit::ToString(int root) const {
  Node n = node(root);
  switch (n.kind) {
    case NodeKind::kConst:
      return n.var == 1 ? "true" : "false";
    case NodeKind::kVar:
      return "v" + std::to_string(n.var);
    case NodeKind::kNot:
      return "(not " + ToString(n.children[0]) + ")";
    case NodeKind::kAnd:
    case NodeKind::kOr: {
      std::string out = n.kind == NodeKind::kAnd ? "(and" : "(or";
      // Copy the child range first: the span into child_arena_ stays valid (no
      // interning here), but recursion re-reads nodes_, so keep it simple.
      std::vector<int> children(n.children.begin(), n.children.end());
      for (int c : children) {
        out += " ";
        out += ToString(c);
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

}  // namespace kbt
