#include "exec/ground_cache.h"

#include <algorithm>
#include <numeric>

namespace kbt::exec {

namespace {

/// Groups the children of an AND root into atom-disjoint components. Two
/// children belong together when their cones share a node: every node
/// reaches an atom, and hash-consing gives each atom one node, so sharing an
/// atom means sharing a node. One walk marks each node with the first child
/// that reached it; a later child reaching a marked node joins that child's
/// component without descending, so the walk is linear in the circuit.
/// Returns no components when the root is one.
std::vector<GroundingComponent> SplitComponents(Grounding* g) {
  Circuit& circuit = g->circuit;
  Circuit::Node root = circuit.node(g->root);
  if (root.kind != Circuit::NodeKind::kAnd) return {};
  // Copied out: interning the component ANDs below moves the child arena.
  const std::vector<int> children(root.children.begin(), root.children.end());

  std::vector<uint32_t> parent(children.size());
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&](uint32_t k) {
    while (parent[k] != k) k = parent[k] = parent[parent[k]];
    return k;
  };
  std::vector<int32_t> owner(circuit.size(), -1);
  std::vector<std::pair<int, uint32_t>> atom_owner;  // (atom, first child)
  std::vector<int> stack;
  for (uint32_t k = 0; k < children.size(); ++k) {
    stack.push_back(children[k]);
    while (!stack.empty()) {
      int id = stack.back();
      stack.pop_back();
      int32_t& mark = owner[static_cast<size_t>(id)];
      if (mark >= 0) {
        uint32_t a = find(static_cast<uint32_t>(mark)), b = find(k);
        if (a != b) parent[std::max(a, b)] = std::min(a, b);
        continue;
      }
      mark = static_cast<int32_t>(k);
      Circuit::Node n = circuit.node(id);
      if (n.kind == Circuit::NodeKind::kVar) atom_owner.emplace_back(n.var, k);
      for (int c : n.children) stack.push_back(c);
    }
  }

  // Components in order of their first child; the union keeps the smallest
  // child as each root, so numbering roots in child order does exactly that.
  std::vector<int32_t> component_of(children.size(), -1);
  size_t count = 0;
  for (uint32_t k = 0; k < children.size(); ++k) {
    if (find(k) == k) component_of[k] = static_cast<int32_t>(count++);
  }
  if (count <= 1) return {};
  std::vector<std::vector<int>> parts(count);
  for (uint32_t k = 0; k < children.size(); ++k) {
    parts[static_cast<size_t>(component_of[find(k)])].push_back(children[k]);
  }
  std::vector<GroundingComponent> components(count);
  for (auto [atom, k] : atom_owner) {
    components[static_cast<size_t>(component_of[find(k)])].atoms.push_back(atom);
  }
  for (size_t c = 0; c < count; ++c) {
    GroundingComponent& component = components[c];
    component.root = parts[c].size() == 1 ? parts[c][0]
                                          : circuit.AndNode(std::move(parts[c]));
    std::sort(component.atoms.begin(), component.atoms.end());
    component.atoms.shrink_to_fit();
  }
  return components;
}

}  // namespace

size_t CachedGrounding::HeapBytes() const {
  size_t bytes = sizeof(*this) + grounding.circuit.HeapBytes() +
                 grounding.atoms.HeapBytes() +
                 mentioned.capacity() * sizeof(int) +
                 components.capacity() * sizeof(GroundingComponent) +
                 key_bit.capacity() * sizeof(uint32_t);
  for (const GroundingComponent& c : components) {
    bytes += c.atoms.capacity() * sizeof(int);
  }
  return bytes;
}

StatusOr<std::shared_ptr<const CachedGrounding>> MakeCachedGrounding(
    const Formula& sentence, const std::vector<Value>& domain,
    const GrounderOptions& options) {
  auto cached = std::make_shared<CachedGrounding>();
  KBT_ASSIGN_OR_RETURN(cached->grounding,
                       GroundSentence(sentence, domain, options));
  cached->mentioned =
      cached->grounding.circuit.CollectVars(cached->grounding.root);
  cached->mentioned.shrink_to_fit();
  cached->components = SplitComponents(&cached->grounding);
  // SplitComponents interned the last node: from here on the grounding is
  // only read, so it keeps no interning state and no spare capacity.
  cached->grounding.circuit.Seal();
  cached->grounding.atoms.ShrinkToFit();
  // The key layout: a one-part root keys `mentioned` in order; a split root
  // keys each component's atoms in turn, from a fresh word.
  cached->key_bit.assign(cached->grounding.atoms.size(), kNoKeyBit);
  if (cached->components.empty()) {
    for (size_t k = 0; k < cached->mentioned.size(); ++k) {
      cached->key_bit[static_cast<size_t>(cached->mentioned[k])] =
          static_cast<uint32_t>(k);
    }
    cached->key_words = (cached->mentioned.size() + 63) / 64;
  }
  for (const GroundingComponent& c : cached->components) {
    for (size_t k = 0; k < c.atoms.size(); ++k) {
      cached->key_bit[static_cast<size_t>(c.atoms[k])] =
          static_cast<uint32_t>(64 * cached->key_words + k);
    }
    cached->key_words += (c.atoms.size() + 63) / 64;
  }
  return std::shared_ptr<const CachedGrounding>(std::move(cached));
}

}  // namespace kbt::exec
