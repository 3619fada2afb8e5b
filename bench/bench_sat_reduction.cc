/// \file
/// E4 — Theorem 4.2: 3CNF satisfiability as a fixed π(τ(·)) transformation (the
/// lower-bound witness: data complexity of composite expressions is NP/co-NP-hard).
/// The transformation enumerates all 2^n assignment worlds, so runtime doubles per
/// variable — that exponential *is* the hardness construction, shown next to the
/// raw CDCL time on the identical instance.

#include <benchmark/benchmark.h>

#include <array>
#include <random>

#include <cmath>

#include "bench_util.h"
#include "sat/solver.h"

namespace kbt::bench {
namespace {

struct Cnf3 {
  int num_vars;
  std::vector<std::array<std::pair<int, bool>, 3>> clauses;
};

Cnf3 RandomCnf(int num_vars, int num_clauses, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Cnf3 out;
  out.num_vars = num_vars;
  std::uniform_int_distribution<int> var(0, num_vars - 1);
  std::bernoulli_distribution sign(0.5);
  for (int i = 0; i < num_clauses; ++i) {
    out.clauses.push_back({std::make_pair(var(rng), sign(rng)),
                           std::make_pair(var(rng), sign(rng)),
                           std::make_pair(var(rng), sign(rng))});
  }
  return out;
}

Knowledgebase ReductionKb(const Cnf3& cnf) {
  std::vector<Tuple> lits, clauses;
  for (size_t c = 0; c < cnf.clauses.size(); ++c) {
    clauses.push_back(Tuple{Name("c" + std::to_string(c))});
    for (auto [v, positive] : cnf.clauses[c]) {
      lits.push_back(Tuple{Name("c" + std::to_string(c)),
                           Name("x" + std::to_string(v)),
                           Name(positive ? "0" : "1")});
    }
  }
  return Knowledgebase::Singleton(*Database::Create(
      *Schema::Of({{"Clause", 1}, {"LitOpp", 3}}),
      {Relation(1, std::move(clauses)), Relation(3, std::move(lits))}));
}

const char* kReductionExpr =
    "tau{ (forall c, v, t: LitOpp(c, v, t) -> R2(v, 0) | R2(v, 1)) & "
    "     (forall c: Clause(c) & "
    "        (forall v, t: LitOpp(c, v, t) -> R2(v, t)) -> R3()) } >> pi[R3]";

void BM_SatReduction_Transformation(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Cnf3 cnf = RandomCnf(n, static_cast<int>(4.2 * n), 67);
  Knowledgebase kb = ReductionKb(cnf);
  Engine engine;
  bool satisfiable = false;
  for (auto _ : state) {
    auto out = engine.Apply(kReductionExpr, kb);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    satisfiable = false;
    for (size_t w = 0; w < out->size(); ++w) {
      const Database db = out->World(w);
      if (db.RelationFor("R3")->empty()) satisfiable = true;
    }
    benchmark::DoNotOptimize(satisfiable);
  }
  state.counters["sat"] = satisfiable ? 1 : 0;
  state.counters["worlds"] = std::pow(2.0, n);
}
BENCHMARK(BM_SatReduction_Transformation)->DenseRange(2, 7)
    ->Unit(benchmark::kMillisecond);

void BM_SatReduction_DirectCdcl(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Cnf3 cnf = RandomCnf(n, static_cast<int>(4.2 * n), 67);
  for (auto _ : state) {
    sat::Solver solver;
    std::vector<sat::Var> vars;
    for (int i = 0; i < n; ++i) vars.push_back(solver.NewVar());
    for (const auto& clause : cnf.clauses) {
      std::vector<sat::Lit> c;
      for (auto [v, positive] : clause) {
        c.push_back(sat::MkLit(vars[static_cast<size_t>(v)], !positive));
      }
      solver.AddClause(c);
    }
    benchmark::DoNotOptimize(solver.Solve());
  }
}
BENCHMARK(BM_SatReduction_DirectCdcl)->DenseRange(2, 8);

}  // namespace
}  // namespace kbt::bench
