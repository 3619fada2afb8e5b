/// \file
/// E5 — Theorem 4.7: quantifier-free (ground) transformations have PTIME data
/// complexity. The reference enumeration touches only the ≤|φ| ground atoms of the
/// sentence, so runtime is flat-to-linear in database size — and, for contrast,
/// exponential in the number of *mentioned* atoms (the expression-complexity
/// direction, Theorem 4.9).

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace kbt::bench {
namespace {

/// A ground batch update touching k edges: insert k/2, delete k/2.
Formula GroundBatch(int k) {
  std::vector<Formula> parts;
  for (int i = 0; i < k; ++i) {
    Formula atom = Atom("R", {Term::Const(V(i)), Term::Const(V(i + 1))});
    parts.push_back(i % 2 == 0 ? atom : Not(atom));
  }
  return And(std::move(parts));
}

void BM_QuantifierFree_DatabaseScaling(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Knowledgebase kb = GraphKb("R", RandomEdges(n, 4.0, 47));
  Formula phi = GroundBatch(6);
  for (auto _ : state) {
    MuOptions options;  // Auto picks the Theorem 4.7 reference path.
    MuStats stats;
    auto out = Mu(phi, kb.World(0), options, &stats);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
  state.counters["db_tuples"] =
      static_cast<double>(kb.World(0).TupleCount());
}
BENCHMARK(BM_QuantifierFree_DatabaseScaling)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_QuantifierFree_DisjunctionWidth(benchmark::State& state) {
  // k-way disjunction of fresh facts: k minimal models, 2^k assignments in the
  // reference enumeration — exponential in |φ|, polynomial in the data.
  int k = static_cast<int>(state.range(0));
  Knowledgebase kb = GraphKb("R", RandomEdges(12, 2.0, 53));
  std::vector<Formula> options_list;
  for (int i = 0; i < k; ++i) {
    options_list.push_back(
        Atom("R", {Term::Const("f" + std::to_string(i)), Term::Const("g")}));
  }
  Formula phi = Or(std::move(options_list));
  MuOptions options;
  options.strategy = MuStrategy::kReference;
  for (auto _ : state) {
    auto out = Mu(phi, kb.World(0), options);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_QuantifierFree_DisjunctionWidth)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_QuantifierFree_SatVsReference(benchmark::State& state) {
  // Same ground workload through the CDCL engine: confirms the fast path is the
  // right default for ground sentences.
  int n = static_cast<int>(state.range(0));
  Knowledgebase kb = GraphKb("R", RandomEdges(n, 4.0, 47));
  Formula phi = GroundBatch(6);
  MuOptions options;
  options.strategy = MuStrategy::kSat;
  for (auto _ : state) {
    auto out = Mu(phi, kb.World(0), options);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_QuantifierFree_SatVsReference)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace kbt::bench
