#ifndef KBT_TESTS_TESTUTIL_H_
#define KBT_TESTS_TESTUTIL_H_

/// \file
/// Shared test utilities: independent reference implementations of the graph
/// notions the paper's §3 examples compute through transformations (so the tests
/// never compare the engine against itself), the specification oracle for τ and
/// counterfactual chains (plain μ on flat worlds), plus random generators for
/// databases and sentences used by the property tests.

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/kbt.h"

namespace kbt::testutil {

/// A small directed graph over integer vertices 0..n-1.
struct Graph {
  int n = 0;
  std::set<std::pair<int, int>> edges;

  bool Has(int a, int b) const { return edges.count({a, b}) > 0; }
};

/// Vertex name "v<i>".
inline std::string VertexName(int i) { return "v" + std::to_string(i); }

/// Edge relation tuples of `g` as a Relation of arity 2.
inline Relation EdgeRelation(const Graph& g) {
  std::vector<Tuple> tuples;
  for (auto [a, b] : g.edges) {
    tuples.push_back(Tuple{Name(VertexName(a)), Name(VertexName(b))});
  }
  return Relation(2, std::move(tuples));
}

/// Decodes a binary relation over vertex names back into edge pairs.
inline std::set<std::pair<int, int>> DecodeEdges(const Relation& r) {
  std::set<std::pair<int, int>> out;
  for (TupleView t : r) {
    std::string a = NameOf(t[0]);
    std::string b = NameOf(t[1]);
    out.insert({std::stoi(a.substr(1)), std::stoi(b.substr(1))});
  }
  return out;
}

/// Reference transitive closure (Warshall).
inline std::set<std::pair<int, int>> TransitiveClosure(
    const std::set<std::pair<int, int>>& edges, int n) {
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (auto [a, b] : edges) reach[a][b] = true;
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (reach[i][k] && reach[k][j]) reach[i][j] = true;
      }
    }
  }
  std::set<std::pair<int, int>> out;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (reach[i][j]) out.insert({i, j});
    }
  }
  return out;
}

/// All inclusion-minimal subsets of `edges` with the same transitive closure —
/// the transitive reductions of Example 2, by brute force (use tiny graphs).
inline std::vector<std::set<std::pair<int, int>>> TransitiveReductions(
    const std::set<std::pair<int, int>>& edges, int n) {
  std::vector<std::pair<int, int>> edge_list(edges.begin(), edges.end());
  auto closure = TransitiveClosure(edges, n);
  std::vector<std::set<std::pair<int, int>>> preserving;
  for (uint32_t mask = 0; mask < (uint32_t{1} << edge_list.size()); ++mask) {
    std::set<std::pair<int, int>> subset;
    for (size_t i = 0; i < edge_list.size(); ++i) {
      if ((mask >> i) & 1) subset.insert(edge_list[i]);
    }
    if (TransitiveClosure(subset, n) == closure) preserving.push_back(subset);
  }
  std::vector<std::set<std::pair<int, int>>> minimal;
  for (const auto& s : preserving) {
    bool is_minimal = true;
    for (const auto& t : preserving) {
      if (t != s && std::includes(s.begin(), s.end(), t.begin(), t.end())) {
        is_minimal = false;
        break;
      }
    }
    if (is_minimal) minimal.push_back(s);
  }
  return minimal;
}

/// True iff the undirected graph (given as a symmetric edge set) admits a
/// partition of its edges into two triangle-free ("antitransitive") halves —
/// the monochromatic-triangle property of Example 5, by brute force.
inline bool HasMonochromaticTriangleFreePartition(
    const std::set<std::pair<int, int>>& sym_edges, int n) {
  (void)n;
  std::vector<std::pair<int, int>> undirected;
  for (auto [a, b] : sym_edges) {
    if (a < b) undirected.push_back({a, b});
  }
  auto triangle_free = [&](const std::set<std::pair<int, int>>& half) {
    for (auto [a, b] : half) {
      for (auto [c, d] : half) {
        if (b != c) continue;
        if (half.count({a, d}) > 0 || half.count({d, a}) > 0) {
          // a-b, b-d, a-d all in the same half: monochromatic triangle.
          return false;
        }
      }
    }
    return true;
  };
  for (uint32_t mask = 0; mask < (uint32_t{1} << undirected.size()); ++mask) {
    std::set<std::pair<int, int>> red, blue;
    for (size_t i = 0; i < undirected.size(); ++i) {
      auto [a, b] = undirected[i];
      if ((mask >> i) & 1) {
        red.insert({a, b});
        red.insert({b, a});
      } else {
        blue.insert({a, b});
        blue.insert({b, a});
      }
    }
    if (triangle_free(red) && triangle_free(blue)) return true;
  }
  return false;
}

/// Size of the largest clique, by brute force (use tiny graphs). Edges symmetric.
inline int MaxCliqueSize(const std::set<std::pair<int, int>>& sym_edges, int n) {
  int best = 0;
  for (uint32_t mask = 0; mask < (uint32_t{1} << n); ++mask) {
    std::vector<int> vs;
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1) vs.push_back(i);
    }
    bool clique = true;
    for (size_t i = 0; i < vs.size() && clique; ++i) {
      for (size_t j = i + 1; j < vs.size() && clique; ++j) {
        if (sym_edges.count({vs[i], vs[j]}) == 0) clique = false;
      }
    }
    if (clique) best = std::max<int>(best, static_cast<int>(vs.size()));
  }
  return best;
}

/// Random directed graph with edge probability p.
inline Graph RandomGraph(int n, double p, std::mt19937_64* rng) {
  Graph g;
  g.n = n;
  std::bernoulli_distribution coin(p);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j && coin(*rng)) g.edges.insert({i, j});
    }
  }
  return g;
}

/// Random DAG (edges only i → j with i < j) with edge probability p. Example 2's
/// sentence characterizes transitive reductions faithfully on DAGs only — see
/// paper_examples_test.cc for the cyclic caveat.
inline Graph RandomDag(int n, double p, std::mt19937_64* rng) {
  Graph g;
  g.n = n;
  std::bernoulli_distribution coin(p);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (coin(*rng)) g.edges.insert({i, j});
    }
  }
  return g;
}

/// Complete undirected graph K_n as a symmetric directed edge set.
inline Graph CompleteGraph(int n) {
  Graph g;
  g.n = n;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) g.edges.insert({i, j});
    }
  }
  return g;
}

// ---------------------------------------------------------------------------
// Random inputs for property tests.
// ---------------------------------------------------------------------------

/// A relation's rows as a set of value vectors: the naive reference the flat
/// relation storage is checked against.
using RefSet = std::set<std::vector<Value>>;

/// The relation holding `ref`'s rows, built row by row.
inline Relation FromRef(size_t arity, const RefSet& ref) {
  Relation::Builder b(arity);
  for (const auto& row : ref) {
    if (arity == 0) {
      b.Append(TupleView());
    } else {
      b.Append(TupleView(row.data(), row.size()));
    }
  }
  return b.Build();
}

/// `r`'s rows as a reference set.
inline RefSet ToRef(const Relation& r) {
  RefSet out;
  for (TupleView t : r) out.insert(std::vector<Value>(t.begin(), t.end()));
  return out;
}

/// Up to `max_rows` random rows of `arity` values over {a, b, c, d}.
inline RefSet RandomRef(size_t arity, size_t max_rows, std::mt19937_64* rng) {
  std::uniform_int_distribution<size_t> rows(0, max_rows);
  std::uniform_int_distribution<int> val(0, 3);
  RefSet out;
  size_t n = rows(*rng);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> row;
    row.reserve(arity);
    for (size_t k = 0; k < arity; ++k) {
      row.push_back(Name(std::string(1, static_cast<char>('a' + val(*rng)))));
    }
    out.insert(std::move(row));
  }
  return out;
}

/// Fixed three-constant domain used by the randomized μ/τ tests; every generated
/// database stores all three in a unary Dom relation so the active domain B is
/// constant across members and updates (see tau_postulates_test.cc).
inline const std::vector<std::string>& TestConstants() {
  static const std::vector<std::string>* names =
      new std::vector<std::string>{"a", "b", "c"};
  return *names;
}

/// Schema used by the random generators: Dom/1 (always full), P/1, Q/2.
inline Schema TestSchema() {
  return *Schema::Of({{"Dom", 1}, {"P", 1}, {"Q", 2}});
}

/// Random database over TestSchema with Dom = {a,b,c} and random P, Q.
inline Database RandomDatabase(std::mt19937_64* rng) {
  std::bernoulli_distribution coin(0.5);
  std::vector<Tuple> dom, p, q;
  for (const std::string& x : TestConstants()) {
    dom.push_back(Tuple{Name(x)});
    if (coin(*rng)) p.push_back(Tuple{Name(x)});
    for (const std::string& y : TestConstants()) {
      if (coin(*rng)) q.push_back(Tuple{Name(x), Name(y)});
    }
  }
  Database db(TestSchema());
  db = *db.WithRelation("Dom", Relation(1, std::move(dom)));
  db = *db.WithRelation("P", Relation(1, std::move(p)));
  db = *db.WithRelation("Q", Relation(2, std::move(q)));
  return db;
}

/// Random knowledgebase of 1..3 members over TestSchema.
inline Knowledgebase RandomKnowledgebase(std::mt19937_64* rng) {
  std::uniform_int_distribution<int> count(1, 3);
  std::vector<Database> dbs;
  int k = count(*rng);
  for (int i = 0; i < k; ++i) dbs.push_back(RandomDatabase(rng));
  return *Knowledgebase::FromDatabases(std::move(dbs));
}

/// Random sentence over the relations P/1, Q/2 (never Dom, so Dom stays quiet and
/// pins the active domain), constants {a,b,c}, with bounded depth and both
/// quantifiers. `new_relation_prob` adds atoms over a fresh relation N/1 so some
/// updates extend the schema.
class RandomSentenceGenerator {
 public:
  RandomSentenceGenerator(std::mt19937_64* rng, double new_relation_prob = 0.0)
      : rng_(rng), new_relation_prob_(new_relation_prob) {}

  Formula Generate(int max_depth = 3) { return Gen(max_depth, {}); }

 private:
  Term RandomTerm(const std::vector<Symbol>& scope) {
    std::uniform_int_distribution<size_t> pick(0, scope.size() +
                                                      TestConstants().size() - 1);
    size_t i = pick(*rng_);
    if (i < scope.size()) return Term::Var(scope[i]);
    return Term::Const(TestConstants()[i - scope.size()]);
  }

  Formula GenAtom(const std::vector<Symbol>& scope) {
    std::uniform_int_distribution<int> pick(0, 3);
    std::bernoulli_distribution fresh(new_relation_prob_);
    if (fresh(*rng_)) return Atom("N", {RandomTerm(scope)});
    switch (pick(*rng_)) {
      case 0:
        return Atom("P", {RandomTerm(scope)});
      case 1:
      case 2:
        return Atom("Q", {RandomTerm(scope), RandomTerm(scope)});
      default:
        return Equals(RandomTerm(scope), RandomTerm(scope));
    }
  }

  Formula Gen(int depth, std::vector<Symbol> scope) {
    std::uniform_int_distribution<int> pick(0, depth <= 0 ? 0 : 5);
    switch (pick(*rng_)) {
      case 0:
        return GenAtom(scope);
      case 1:
        return Not(Gen(depth - 1, scope));
      case 2:
        return And(Gen(depth - 1, scope), Gen(depth - 1, scope));
      case 3:
        return Or(Gen(depth - 1, scope), Gen(depth - 1, scope));
      case 4: {
        Symbol v = Name("u" + std::to_string(scope.size() + 1));
        scope.push_back(v);
        return Exists(v, Gen(depth - 1, scope));
      }
      default: {
        Symbol v = Name("u" + std::to_string(scope.size() + 1));
        scope.push_back(v);
        return Forall(v, Gen(depth - 1, scope));
      }
    }
  }

  std::mt19937_64* rng_;
  double new_relation_prob_;
};

// ---------------------------------------------------------------------------
// The specification oracle: what every fast path of τ is checked against.
// ---------------------------------------------------------------------------

/// The specification τ (eq. 10): plain μ on every flat World(i), unioned. It
/// bypasses Tau entirely — no world classes, shared caches, pools or forked
/// solvers.
inline StatusOr<Knowledgebase> OracleTau(const Formula& phi,
                                         const Knowledgebase& kb,
                                         const MuOptions& mu = MuOptions()) {
  std::vector<Knowledgebase> parts;
  for (size_t i = 0; i < kb.size(); ++i) {
    KBT_ASSIGN_OR_RETURN(Knowledgebase part, Mu(phi, kb.World(i), mu));
    parts.push_back(std::move(part));
  }
  return Knowledgebase::UnionAll(std::move(parts));
}

/// The specification counterfactual chain: OracleTau folded over the
/// antecedents, then Satisfies folded over every flat world, each extended to
/// the consequent's relations (empty under the closed-world assumption). No
/// early exit: every world is checked.
inline StatusOr<bool> OracleHolds(const Knowledgebase& kb,
                                  const std::vector<Formula>& antecedents,
                                  const Formula& consequent, Modality modality,
                                  const MuOptions& mu = MuOptions()) {
  Knowledgebase current = kb;
  for (const Formula& antecedent : antecedents) {
    KBT_ASSIGN_OR_RETURN(current, OracleTau(antecedent, current, mu));
  }
  KBT_ASSIGN_OR_RETURN(Schema consequent_schema, SchemaOf(consequent));
  bool all = true;
  bool some = false;
  for (size_t i = 0; i < current.size(); ++i) {
    Database world = current.World(i);
    if (!world.schema().Includes(consequent_schema)) {
      KBT_ASSIGN_OR_RETURN(Schema extended,
                           world.schema().Union(consequent_schema));
      KBT_ASSIGN_OR_RETURN(world, world.ExtendTo(extended));
    }
    KBT_ASSIGN_OR_RETURN(bool holds, Satisfies(world, consequent));
    all = all && holds;
    some = some || holds;
  }
  return modality == Modality::kNecessarily ? all : some;
}

/// Knowledgebase as a set of database strings, for order-insensitive asserts.
inline std::set<std::string> KbAsStrings(const Knowledgebase& kb) {
  std::set<std::string> out;
  for (size_t i = 0; i < kb.size(); ++i) out.insert(kb.World(i).ToString());
  return out;
}

}  // namespace kbt::testutil

#endif  // KBT_TESTS_TESTUTIL_H_
