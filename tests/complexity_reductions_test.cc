/// \file
/// Constructive reductions from §4 and §5, exercised end to end:
///
///  * Theorem 4.2 — 3CNF satisfiability as a fixed transformation π(τ(·)) over a
///    clause database. (We store clause literals in a bounded-arity table
///    Lit(clause, var, sign) instead of the paper's 7-ary clause relation, keeping
///    the grounding polynomial while preserving the construction: completeness of
///    the assignment is forced by the sentence, consistency by minimality, and the
///    zero-ary R3 flags violated clauses.)
///  * Theorem 4.9 — propositional satisfiability through a quantifier-free
///    transformation over zero-ary relations.
///  * Theorem 5.1 — an existential second-order query (2-colorability) in ST1 form
///    π ⊔ τ over the knowledgebase of all candidate colorings.

#include <gtest/gtest.h>

#include <random>

#include "core/kbt.h"
#include "sat/solver.h"
#include "testutil.h"

namespace kbt {
namespace {

struct Cnf3 {
  int num_vars;
  // Each clause: three (var, sign) literals, sign true = positive.
  std::vector<std::array<std::pair<int, bool>, 3>> clauses;
};

Cnf3 RandomCnf(int num_vars, int num_clauses, std::mt19937_64* rng) {
  Cnf3 out;
  out.num_vars = num_vars;
  std::uniform_int_distribution<int> var(0, num_vars - 1);
  std::bernoulli_distribution sign(0.5);
  for (int i = 0; i < num_clauses; ++i) {
    out.clauses.push_back({std::make_pair(var(*rng), sign(*rng)),
                           std::make_pair(var(*rng), sign(*rng)),
                           std::make_pair(var(*rng), sign(*rng))});
  }
  return out;
}

bool SolveDirectly(const Cnf3& cnf) {
  sat::Solver solver;
  std::vector<sat::Var> vars;
  for (int i = 0; i < cnf.num_vars; ++i) vars.push_back(solver.NewVar());
  for (const auto& clause : cnf.clauses) {
    std::vector<sat::Lit> lits;
    for (auto [v, positive] : clause) {
      lits.push_back(sat::MkLit(vars[static_cast<size_t>(v)], !positive));
    }
    solver.AddClause(lits);
  }
  return solver.Solve() == sat::SolveResult::kSat;
}

/// The Theorem 4.2 transformation. Data: Clause(c) plus LitOpp(c, v, t), where t
/// is the *opposite* of the literal's sign (pre-negated, which keeps the fixed
/// sentence at quantifier depth 3 instead of the paper's arity-7 clause table).
/// The sentence forces a complete assignment R2 and — exactly as in the paper's
/// ψ2, where a clause fires R3 only when ALL its literals carry the opposite
/// value — raises the zero-ary R3 on any falsified clause; consistency of R2 is
/// enforced by minimality. The 3CNF is satisfiable iff some world has R3 = ∅.
bool SolveViaTransformation(const Cnf3& cnf) {
  std::vector<Tuple> lit_tuples;
  std::vector<Tuple> clause_tuples;
  for (size_t c = 0; c < cnf.clauses.size(); ++c) {
    clause_tuples.push_back(Tuple{Name("c" + std::to_string(c))});
    for (auto [v, positive] : cnf.clauses[c]) {
      lit_tuples.push_back(Tuple{Name("c" + std::to_string(c)),
                                 Name("x" + std::to_string(v)),
                                 Name(positive ? "0" : "1")});
    }
  }
  Knowledgebase kb = Knowledgebase::Singleton(*Database::Create(
      *Schema::Of({{"Clause", 1}, {"LitOpp", 3}}),
      {Relation(1, std::move(clause_tuples)), Relation(3, std::move(lit_tuples))}));
  Engine engine;
  Knowledgebase out = *engine.Apply(
      "tau{ (forall c, v, t: LitOpp(c, v, t) -> R2(v, 0) | R2(v, 1)) & "
      "     (forall c: Clause(c) & "
      "        (forall v, t: LitOpp(c, v, t) -> R2(v, t)) -> R3()) } >> pi[R3]",
      kb);
  for (size_t w = 0; w < out.size(); ++w) {
    const Database db = out.World(w);
    if (db.RelationFor("R3")->empty()) return true;
  }
  return false;
}

class Theorem42ReductionTest : public ::testing::TestWithParam<int> {};

TEST_P(Theorem42ReductionTest, TransformationDecides3Cnf) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 1299709 + 11);
  // Mix of under- and over-constrained instances around the phase transition.
  for (int m : {3, 6, 9, 13}) {
    Cnf3 cnf = RandomCnf(3, m, &rng);
    EXPECT_EQ(SolveViaTransformation(cnf), SolveDirectly(cnf))
        << "vars=3 clauses=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem42ReductionTest, ::testing::Range(0, 6));

TEST(Theorem42ReductionTest, UnsatCoreInstance) {
  // (x)(¬x) padded to 3 literals: unsatisfiable.
  Cnf3 cnf;
  cnf.num_vars = 1;
  cnf.clauses.push_back({std::make_pair(0, true), std::make_pair(0, true),
                         std::make_pair(0, true)});
  cnf.clauses.push_back({std::make_pair(0, false), std::make_pair(0, false),
                         std::make_pair(0, false)});
  EXPECT_FALSE(SolveDirectly(cnf));
  EXPECT_FALSE(SolveViaTransformation(cnf));
}

// ---------------------------------------------------------------------------
// Theorem 4.9: propositional formulas through zero-ary relations.
// ---------------------------------------------------------------------------

/// φ' is a propositional formula over zero-ary relations A(), B(), C(). The
/// quantifier-free transformation π_{R0} τ_{R0() → φ'} on the database with
/// R0 = {()} keeps R0 true iff φ' is satisfiable.
bool PropositionalSatViaTransformation(const Formula& prop) {
  Database db = *MakeDatabase({{"R0", 0}}, {});
  db = *db.WithRelation("R0", Relation(0).WithTuple(Tuple()));
  Knowledgebase kb = Knowledgebase::Singleton(db);
  Knowledgebase out = *(*Tau(Implies(Atom("R0", {}), prop), kb)).ProjectTo(
      {Name("R0")});
  for (size_t w = 0; w < out.size(); ++w) {
    const Database result = out.World(w);
    if (result.RelationFor("R0")->Contains(Tuple())) return true;
  }
  return false;
}

TEST(Theorem49ReductionTest, QuantifierFreeSatisfiability) {
  Formula a = Atom("A", {});
  Formula b = Atom("B", {});
  // Satisfiable: A ∧ ¬B.
  EXPECT_TRUE(PropositionalSatViaTransformation(And(a, Not(b))));
  // Unsatisfiable: A ∧ ¬A.
  EXPECT_FALSE(PropositionalSatViaTransformation(And(a, Not(a))));
  // Satisfiable: (A ∨ B) ∧ (¬A ∨ B) ∧ (A ∨ ¬B).
  EXPECT_TRUE(PropositionalSatViaTransformation(
      And({Or(a, b), Or(Not(a), b), Or(a, Not(b))})));
  // Unsatisfiable: all four sign combinations.
  EXPECT_FALSE(PropositionalSatViaTransformation(
      And({Or(a, b), Or(Not(a), b), Or(a, Not(b)), Or(Not(a), Not(b))})));
}

TEST(Theorem49ReductionTest, RandomPropositionalFormulasMatchSolver) {
  std::mt19937_64 rng(31415);
  std::vector<Formula> atoms = {Atom("A", {}), Atom("B", {}), Atom("C", {})};
  for (int trial = 0; trial < 15; ++trial) {
    // Random 2-3 clause CNF over three 0-ary atoms.
    std::uniform_int_distribution<int> pick(0, 2);
    std::bernoulli_distribution coin(0.5);
    std::vector<Formula> clauses;
    int m = 2 + (trial % 3);
    for (int i = 0; i < m; ++i) {
      Formula l1 = coin(rng) ? atoms[pick(rng)] : Not(atoms[pick(rng)]);
      Formula l2 = coin(rng) ? atoms[pick(rng)] : Not(atoms[pick(rng)]);
      clauses.push_back(Or(l1, l2));
    }
    Formula prop = And(clauses);
    // Brute-force reference over 8 assignments.
    bool expected = false;
    for (int mask = 0; mask < 8 && !expected; ++mask) {
      Database world = *MakeDatabase({{"A", 0}, {"B", 0}, {"C", 0}}, {});
      const char* names[] = {"A", "B", "C"};
      for (int i = 0; i < 3; ++i) {
        if ((mask >> i) & 1) {
          world = *world.WithRelation(names[i], Relation(0).WithTuple(Tuple()));
        }
      }
      expected |= *Satisfies(world, prop);
    }
    EXPECT_EQ(PropositionalSatViaTransformation(prop), expected);
  }
}

// ---------------------------------------------------------------------------
// Theorem 5.1: SF ⊆ ST1 — an ∃SO query as π ⊔ τ over candidate extensions.
// ---------------------------------------------------------------------------

/// All extensions of `db` by every possible unary relation `name` over its
/// active domain: the knowledgebase the Theorem 5.1 construction posits.
Knowledgebase AllUnaryExtensions(const Database& db, std::string_view name) {
  std::vector<Value> domain = db.ActiveDomain();
  Schema extended = *db.schema().Union(*Schema::Of({{name, 1}}));
  std::vector<Database> worlds;
  for (uint64_t mask = 0; mask < (uint64_t{1} << domain.size()); ++mask) {
    std::vector<Tuple> tuples;
    for (size_t i = 0; i < domain.size(); ++i) {
      if ((mask >> i) & 1) tuples.push_back(Tuple{domain[i]});
    }
    Database world = *db.ExtendTo(extended);
    world = *world.WithRelation(Name(name), Relation(1, std::move(tuples)));
    worlds.push_back(std::move(world));
  }
  return *Knowledgebase::FromDatabases(std::move(worlds));
}

/// ∃S ∀x∀y (E(x,y) → ¬(S(x) ↔ S(y))): the graph is 2-colorable (bipartite).
bool BipartiteViaSecondOrderTransformation(const testutil::Graph& g) {
  Database db = *Database::Create(*Schema::Of({{"E", 2}}),
                                  {testutil::EdgeRelation(g)});
  if (db.ActiveDomain().empty()) return true;  // Edgeless graph.
  Knowledgebase kb = AllUnaryExtensions(db, "S");
  Engine engine;
  Knowledgebase out = *engine.Apply(
      "tau{ (forall x, y: E(x, y) -> !(S(x) <-> S(y))) -> Ans() } "
      ">> lub >> pi[Ans]",
      kb);
  EXPECT_EQ(out.size(), 1u) << "⊔ must produce a singleton";
  if (out.empty()) return false;
  return out.World(0).RelationFor("Ans")->Contains(Tuple());
}

/// Reference bipartiteness by BFS 2-coloring.
bool BipartiteReference(const testutil::Graph& g) {
  std::vector<int> color(static_cast<size_t>(g.n), -1);
  for (int start = 0; start < g.n; ++start) {
    if (color[static_cast<size_t>(start)] != -1) continue;
    color[static_cast<size_t>(start)] = 0;
    std::vector<int> queue{start};
    while (!queue.empty()) {
      int u = queue.back();
      queue.pop_back();
      for (auto [a, b] : g.edges) {
        int v = -1;
        if (a == u) v = b;
        if (b == u) v = a;
        if (v < 0) continue;
        if (color[static_cast<size_t>(v)] == -1) {
          color[static_cast<size_t>(v)] = 1 - color[static_cast<size_t>(u)];
          queue.push_back(v);
        } else if (color[static_cast<size_t>(v)] ==
                   color[static_cast<size_t>(u)]) {
          return false;
        }
      }
    }
  }
  return true;
}

class Theorem51Test : public ::testing::TestWithParam<int> {};

TEST_P(Theorem51Test, ExistentialSecondOrderQueryViaSt1) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 15485863 + 2);
  testutil::Graph g;
  g.n = 4;
  std::bernoulli_distribution coin(0.4);
  for (int i = 0; i < g.n; ++i) {
    for (int j = i + 1; j < g.n; ++j) {
      if (coin(rng)) {
        g.edges.insert({i, j});
        g.edges.insert({j, i});
      }
    }
  }
  if (g.edges.empty()) return;
  EXPECT_EQ(BipartiteViaSecondOrderTransformation(g), BipartiteReference(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem51Test, ::testing::Range(0, 10));

TEST(Theorem51Test, OddAndEvenCycles) {
  testutil::Graph c4, c5;
  c4.n = 4;
  c5.n = 5;
  for (int i = 0; i < 4; ++i) {
    c4.edges.insert({i, (i + 1) % 4});
    c4.edges.insert({(i + 1) % 4, i});
  }
  for (int i = 0; i < 5; ++i) {
    c5.edges.insert({i, (i + 1) % 5});
    c5.edges.insert({(i + 1) % 5, i});
  }
  EXPECT_TRUE(BipartiteViaSecondOrderTransformation(c4));
  EXPECT_FALSE(BipartiteViaSecondOrderTransformation(c5));
}

}  // namespace
}  // namespace kbt
