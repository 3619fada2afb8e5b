/// \file
/// E6 — Theorem 4.8: Datalog-restricted transformations have PTIME data
/// complexity. Transitive-closure insertion (Example 1's sentence):
///
///   * through the Theorem 4.8 fast path (semi-naive least fixpoint) on graphs up
///     to 512 vertices — polynomial growth;
///   * through the generic CDCL engine on small graphs — the gap *is* the theorem;
///   * a stratified-negation program via sequential strata (the paper's [ABW88]
///     remark), exercised end to end.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "datalog/eval.h"
#include "datalog/parser.h"

namespace kbt::bench {
namespace {

const char* kTcSentence =
    "forall x, y, z: (T(x, y) & R(y, z)) | R(x, z) -> T(x, z)";

void BM_Datalog_TransitiveClosure(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Knowledgebase kb = GraphKb("R", RandomEdges(n, 3.0, 59));
  Formula phi = *ParseFormula(kTcSentence);
  MuOptions options;
  options.strategy = MuStrategy::kDatalog;
  MuStats stats;
  for (auto _ : state) {
    auto out = Mu(phi, kb.World(0), options, &stats);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
  state.counters["derived"] = static_cast<double>(stats.datalog_derived_tuples);
  state.counters["rounds"] = static_cast<double>(stats.datalog_rounds);
}
BENCHMARK(BM_Datalog_TransitiveClosure)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_Datalog_TransitiveClosureViaGenericEngine(benchmark::State& state) {
  // The same sentence forced through grounding + CDCL: correct but super-
  // polynomially slower; the crossover against the fast path is the point.
  int n = static_cast<int>(state.range(0));
  Knowledgebase kb = GraphKb("R", RandomEdges(n, 3.0, 59));
  Formula phi = *ParseFormula(kTcSentence);
  MuOptions options;
  options.strategy = MuStrategy::kSat;
  options.max_ground_nodes = 50'000'000;
  for (auto _ : state) {
    auto out = Mu(phi, kb.World(0), options);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Datalog_TransitiveClosureViaGenericEngine)
    ->Arg(4)->Arg(8)->Arg(12)->Arg(16)->Arg(24)
    ->Unit(benchmark::kMillisecond);

void BM_Datalog_StratifiedProgramStrata(benchmark::State& state) {
  // reach + unreachable via stratified negation, as a standalone program.
  int n = static_cast<int>(state.range(0));
  datalog::Program program = *datalog::ParseProgram(R"(
    reach(Y) :- start(X), edge(X, Y).
    reach(Y) :- reach(X), edge(X, Y).
    unreachable(X) :- node(X), !reach(X).
  )");
  std::vector<Tuple> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back(Tuple{Name(V(i))});
  Database db = *Database::Create(
      *Schema::Of({{"node", 1}, {"start", 1}, {"edge", 2}}),
      {Relation(1, std::move(nodes)),
       Relation(1, {Tuple{Name(V(0))}}),
       RandomEdges(n, 2.0, 61)});
  for (auto _ : state) {
    auto out = datalog::Evaluate(program, db);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Datalog_StratifiedProgramStrata)
    ->Arg(16)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kbt::bench
