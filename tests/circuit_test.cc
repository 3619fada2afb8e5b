#include "logic/circuit.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace kbt {
namespace {

TEST(CircuitTest, ConstantsAndVars) {
  Circuit c;
  EXPECT_EQ(c.FalseNode(), 0);
  EXPECT_EQ(c.TrueNode(), 1);
  int v0 = c.VarNode(0);
  EXPECT_EQ(c.VarNode(0), v0);  // Hash-consed.
  EXPECT_NE(c.VarNode(1), v0);
}

TEST(CircuitTest, NotFoldsConstantsAndDoubleNegation) {
  Circuit c;
  EXPECT_EQ(c.NotNode(c.TrueNode()), c.FalseNode());
  EXPECT_EQ(c.NotNode(c.FalseNode()), c.TrueNode());
  int v = c.VarNode(0);
  EXPECT_EQ(c.NotNode(c.NotNode(v)), v);
}

TEST(CircuitTest, AndSimplifications) {
  Circuit c;
  int v0 = c.VarNode(0);
  int v1 = c.VarNode(1);
  EXPECT_EQ(c.AndNode({}), c.TrueNode());
  EXPECT_EQ(c.AndNode({v0}), v0);
  EXPECT_EQ(c.AndNode({v0, c.TrueNode()}), v0);
  EXPECT_EQ(c.AndNode({v0, c.FalseNode()}), c.FalseNode());
  EXPECT_EQ(c.AndNode({v0, v0}), v0);
  EXPECT_EQ(c.AndNode({v0, c.NotNode(v0)}), c.FalseNode());
  // Flattening: and(and(v0,v1), v0) == and(v0, v1).
  EXPECT_EQ(c.AndNode({c.AndNode({v0, v1}), v0}), c.AndNode({v0, v1}));
}

TEST(CircuitTest, OrSimplifications) {
  Circuit c;
  int v0 = c.VarNode(0);
  int v1 = c.VarNode(1);
  EXPECT_EQ(c.OrNode({}), c.FalseNode());
  EXPECT_EQ(c.OrNode({v0, c.FalseNode()}), v0);
  EXPECT_EQ(c.OrNode({v0, c.TrueNode()}), c.TrueNode());
  EXPECT_EQ(c.OrNode({v0, c.NotNode(v0)}), c.TrueNode());
  EXPECT_EQ(c.OrNode({c.OrNode({v0, v1}), v1}), c.OrNode({v0, v1}));
}

TEST(CircuitTest, HashConsingSharesStructure) {
  Circuit c;
  int a = c.AndNode({c.VarNode(0), c.VarNode(1)});
  int b = c.AndNode({c.VarNode(1), c.VarNode(0)});  // Children sorted: same node.
  EXPECT_EQ(a, b);
}

TEST(CircuitTest, EvaluateAndCollectVars) {
  Circuit c;
  // (v0 ∧ ¬v1) ∨ v2
  int f = c.OrNode({c.AndNode({c.VarNode(0), c.NotNode(c.VarNode(1))}),
                    c.VarNode(2)});
  auto val = [](bool a, bool b, bool d) {
    return [=](int v) { return v == 0 ? a : (v == 1 ? b : d); };
  };
  EXPECT_TRUE(c.Evaluate(f, val(true, false, false)));
  EXPECT_FALSE(c.Evaluate(f, val(true, true, false)));
  EXPECT_TRUE(c.Evaluate(f, val(false, true, true)));
  std::vector<int> vars = c.CollectVars(f);
  EXPECT_EQ(vars, (std::vector<int>{0, 1, 2}));
}

TEST(CircuitTest, ImpliesAndIffHelpers) {
  Circuit c;
  int v0 = c.VarNode(0);
  int v1 = c.VarNode(1);
  int imp = c.ImpliesNode(v0, v1);
  EXPECT_FALSE(c.Evaluate(imp, [](int v) { return v == 0; }));
  EXPECT_TRUE(c.Evaluate(imp, [](int) { return true; }));
  int iff = c.IffNode(v0, v1);
  EXPECT_TRUE(c.Evaluate(iff, [](int) { return false; }));
  EXPECT_FALSE(c.Evaluate(iff, [](int v) { return v == 1; }));
}

TEST(CircuitTest, EvaluateAllIntoMatchesEvaluateAndCoversAllNodes) {
  // Regression: the DFS suspends mid-child-scan when a child is unevaluated;
  // a decisive child seen *before* the suspension must still decide the gate
  // (And(false, <unevaluated>) is false even after the scan resumes past it).
  Circuit c;
  int x = c.VarNode(0), y = c.VarNode(1);
  int and_fx = c.AndNode({x, y});
  int or_tx = c.OrNode({x, y});
  std::vector<int8_t> memo;
  auto x_false_y_true = [](int v) { return v == 1; };
  c.EvaluateAllInto(and_fx, x_false_y_true, &memo);
  EXPECT_EQ(memo[static_cast<size_t>(and_fx)], 1);  // false ∧ true = false.
  c.EvaluateAllInto(or_tx, [](int v) { return v == 0; }, &memo);
  EXPECT_EQ(memo[static_cast<size_t>(or_tx)], 2);  // true ∨ false = true.

  // Property: on random circuits, every reachable node is valued, each gate's
  // value is consistent with its children, and the root agrees with Evaluate.
  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<int> var(0, 5);
  std::uniform_int_distribution<int> op(0, 2);
  for (int iter = 0; iter < 50; ++iter) {
    Circuit rc;
    std::vector<int> nodes;
    for (int v = 0; v < 6; ++v) nodes.push_back(rc.VarNode(v));
    for (int step = 0; step < 20; ++step) {
      std::uniform_int_distribution<size_t> pick(0, nodes.size() - 1);
      int a = nodes[pick(rng)], b = nodes[pick(rng)];
      int kind = op(rng);
      nodes.push_back(kind == 0   ? rc.AndNode({a, b})
                      : kind == 1 ? rc.OrNode({a, b})
                                  : rc.NotNode(a));
    }
    int root = nodes.back();
    uint64_t mask = rng();
    auto value = [&](int v) { return ((mask >> v) & 1) != 0; };
    std::vector<int8_t> all;
    rc.EvaluateAllInto(root, value, &all);
    EXPECT_EQ(all[static_cast<size_t>(root)] == 2, rc.Evaluate(root, value));
    for (size_t id = 0; id < rc.size(); ++id) {
      if (all[id] == 0) continue;  // Unreachable from root.
      Circuit::Node n = rc.node(static_cast<int>(id));
      switch (n.kind) {
        case Circuit::NodeKind::kAnd:
        case Circuit::NodeKind::kOr: {
          bool is_and = n.kind == Circuit::NodeKind::kAnd;
          bool acc = is_and;
          for (int child : n.children) {
            ASSERT_NE(all[static_cast<size_t>(child)], 0);
            bool cv = all[static_cast<size_t>(child)] == 2;
            acc = is_and ? (acc && cv) : (acc || cv);
          }
          EXPECT_EQ(all[id] == 2, acc) << "node " << id << " iter " << iter;
          break;
        }
        case Circuit::NodeKind::kNot:
          EXPECT_EQ(all[id] == 2, all[static_cast<size_t>(n.children[0])] != 2);
          break;
        case Circuit::NodeKind::kVar:
          EXPECT_EQ(all[id] == 2, value(n.var));
          break;
        case Circuit::NodeKind::kConst:
          break;
      }
    }
  }
}


/// Appends `steps` random gates over `nodes` to `c` (And and Or of two to
/// four nodes, or Not of one), each drawn from `rng`.
void GrowRandom(Circuit& c, std::vector<int>& nodes, int steps,
                std::mt19937_64& rng) {
  for (int step = 0; step < steps; ++step) {
    std::uniform_int_distribution<size_t> pick(0, nodes.size() - 1);
    const uint64_t kind = rng() % 3;
    std::vector<int> children;
    for (uint64_t k = 2 + rng() % 3; k > 0; --k) {
      children.push_back(nodes[pick(rng)]);
    }
    nodes.push_back(kind == 0   ? c.AndNode(children)
                    : kind == 1 ? c.OrNode(children)
                                : c.NotNode(children[0]));
  }
}

/// Everything a reader can ask of a circuit, for every node.
struct Answers {
  std::vector<Circuit::NodeKind> kinds;
  std::vector<int> vars;
  std::vector<std::vector<int>> children;
  std::vector<bool> values;
  std::vector<int8_t> all;
  std::vector<std::vector<int>> collected;
  std::vector<std::string> rendered;

  friend bool operator==(const Answers&, const Answers&) = default;
};

Answers Ask(const Circuit& c, int root, uint64_t mask) {
  auto value = [&](int v) { return ((mask >> v) & 1) != 0; };
  Answers a;
  for (size_t id = 0; id < c.size(); ++id) {
    const Circuit::Node n = c.node(static_cast<int>(id));
    a.kinds.push_back(n.kind);
    a.vars.push_back(n.var);
    a.children.emplace_back(n.children.begin(), n.children.end());
    a.values.push_back(c.Evaluate(static_cast<int>(id), value));
    a.collected.push_back(c.CollectVars(static_cast<int>(id)));
    a.rendered.push_back(c.ToString(static_cast<int>(id)));
  }
  c.EvaluateAllInto(root, value, &a.all);
  return a;
}

TEST(CircuitTest, SealedCircuitAnswersAsBefore) {
  std::mt19937_64 rng(2929);
  for (int iter = 0; iter < 40; ++iter) {
    Circuit c;
    std::vector<int> nodes;
    for (int v = 0; v < 8; ++v) nodes.push_back(c.VarNode(v));
    GrowRandom(c, nodes, 30, rng);
    const int root = c.AndNode({nodes.end()[-1], nodes.end()[-2]});
    const uint64_t mask = rng();
    const Answers before = Ask(c, root, mask);
    const size_t held = c.HeapBytes();
    c.Seal();
    EXPECT_LT(c.HeapBytes(), held) << "iter " << iter;
    EXPECT_EQ(c.size(), before.kinds.size());
    EXPECT_TRUE(Ask(c, root, mask) == before) << "iter " << iter;
  }
}

TEST(CircuitTest, InterningAfterSealMatchesAnUnsealedTwin) {
  std::mt19937_64 rng(3131);
  for (int iter = 0; iter < 20; ++iter) {
    // Same construction on both; only `sealed` is sealed halfway.
    const uint64_t seed = rng();
    Circuit sealed, twin;
    std::vector<int> sealed_nodes, twin_nodes;
    std::mt19937_64 sealed_rng(seed), twin_rng(seed);
    for (int v = 0; v < 6; ++v) {
      sealed_nodes.push_back(sealed.VarNode(v));
      twin_nodes.push_back(twin.VarNode(v));
    }
    GrowRandom(sealed, sealed_nodes, 15, sealed_rng);
    GrowRandom(twin, twin_nodes, 15, twin_rng);
    sealed.Seal();
    // Existing variables and gates are found, not interned again.
    for (int v = 0; v < 8; ++v) {
      EXPECT_EQ(sealed.VarNode(v), twin.VarNode(v));
    }
    GrowRandom(sealed, sealed_nodes, 15, sealed_rng);
    GrowRandom(twin, twin_nodes, 15, twin_rng);
    EXPECT_EQ(sealed_nodes, twin_nodes) << "iter " << iter;
    ASSERT_EQ(sealed.size(), twin.size());
    EXPECT_TRUE(Ask(sealed, sealed_nodes.back(), seed) ==
                Ask(twin, twin_nodes.back(), seed));
  }
}

}  // namespace
}  // namespace kbt
