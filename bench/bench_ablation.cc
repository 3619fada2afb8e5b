/// \file
/// E9 — ablation: CDCL enumeration vs. the reference 2^k enumeration on
/// identical instances (the scalable engine is why non-toy updates run at
/// all). Both are strategies the engine keeps; cone blocking and semi-naive
/// Datalog have no off-path left to ablate (docs/perf.md, "Retired toggles").

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace kbt::bench {
namespace {

/// "Some vertex is missing from R": k mentioned atoms, k minimal models, model
/// space 2^k − 1 — worst case for blind enumeration, easy for CDCL + cones.
void BM_Ablation_SatVsReference(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  bool use_sat = state.range(1) != 0;
  Database db = *Database::Create(*Schema::Of({{"R", 1}}), {UnarySet(n)});
  Formula phi = *ParseFormula("exists x: !R(x)");
  MuOptions options;
  options.strategy = use_sat ? MuStrategy::kSat : MuStrategy::kReference;
  for (auto _ : state) {
    auto out = Mu(phi, db, options);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(use_sat ? "cdcl" : "reference");
}
BENCHMARK(BM_Ablation_SatVsReference)
    ->Args({6, 0})->Args({10, 0})->Args({14, 0})->Args({18, 0})
    ->Args({6, 1})->Args({10, 1})->Args({14, 1})->Args({18, 1});

}  // namespace
}  // namespace kbt::bench
