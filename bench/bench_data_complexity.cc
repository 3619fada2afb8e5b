/// \file
/// E1 — §4 complexity table, row (τ, π), data complexity (Theorem 4.1: ∈ co-NP).
///
/// Fixed sentences, growing databases. The membership-test machinery (grounding +
/// one CDCL enumeration per input world) is polynomial per candidate model, so on
/// benign sentences the measured curves grow polynomially; the co-NP worst case is
/// exhibited separately by bench_sat_reduction. Series:
///
///   * Copy        — ∀x,y (R(x,y) → S(x,y)), forced through the CDCL engine.
///   * VertexDrop  — ∀y ¬R(v0, y): delete all out-edges of one vertex.
///   * ChoiceK     — a k-way disjunctive insert (k fixed): output worlds stay k.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace kbt::bench {
namespace {

MuOptions SatOnly() {
  MuOptions o;
  o.strategy = MuStrategy::kSat;
  return o;
}

void BM_DataComplexity_CopyInsert(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Knowledgebase kb = GraphKb("R", RandomEdges(n, 3.0, 17));
  Formula phi = *ParseFormula("forall x, y: R(x, y) -> S(x, y)");
  for (auto _ : state) {
    auto out = Tau(phi, kb, SatOnly());
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
  state.counters["tuples"] = static_cast<double>(
      kb.World(0).TupleCount());
}
BENCHMARK(BM_DataComplexity_CopyInsert)->Arg(4)->Arg(8)->Arg(16)->Arg(24)->Arg(32);

void BM_DataComplexity_VertexDrop(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Knowledgebase kb = GraphKb("R", RandomEdges(n, 4.0, 23));
  Formula phi = *ParseFormula("forall y: !R(n0, y)");
  for (auto _ : state) {
    auto out = Tau(phi, kb, SatOnly());
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DataComplexity_VertexDrop)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_DataComplexity_DisjunctiveChoice(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Knowledgebase kb = GraphKb("R", RandomEdges(n, 3.0, 29));
  // Three-way indefinite insert (fixed k): output has up to 3 worlds.
  Formula phi = *ParseFormula("R(z1, z2) | R(z3, z4) | R(z5, z6)");
  for (auto _ : state) {
    auto out = Tau(phi, kb, SatOnly());
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DataComplexity_DisjunctiveChoice)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

}  // namespace
}  // namespace kbt::bench
