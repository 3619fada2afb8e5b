/// \file
/// Machine-readable benchmark harness: runs the Datalog fast-path and SAT-path
/// workloads of bench_datalog_ptime / bench_data_complexity and writes
/// BENCH_datalog.json (ops/sec plus fixpoint rounds and derived-tuple counts),
/// so every PR leaves a diffable perf trajectory. Dependency-free (no Google
/// Benchmark): each workload is repeated until it has run for a minimum wall
/// time, and the mean per-op time is recorded.
///
/// Usage: json_bench_datalog [output.json]   (default: BENCH_datalog.json)

#include <cstdio>

#include "bench_util.h"
#include "datalog/eval.h"
#include "datalog/parser.h"

namespace kbt::bench {
namespace {

BenchRecord Record(const std::string& name, int n, double ms_per_op,
                   size_t rounds, size_t derived) {
  BenchRecord r;
  r.name = name;
  r.n = n;
  r.ms_per_op = ms_per_op;
  r.ops_per_sec = ms_per_op > 0 ? 1000.0 / ms_per_op : 0.0;
  r.rounds = rounds;
  r.derived_tuples = derived;
  return r;
}

/// E6 fast path: transitive-closure insertion via Theorem 4.8 (semi-naive).
BenchRecord DatalogTransitiveClosure(int n) {
  Knowledgebase kb = GraphKb("R", RandomEdges(n, 3.0, 59));
  Formula phi = *ParseFormula(
      "forall x, y, z: (T(x, y) & R(y, z)) | R(x, z) -> T(x, z)");
  MuOptions options;
  options.strategy = MuStrategy::kDatalog;
  MuStats stats;
  double ms = MeasureMs([&] {
    auto out = Mu(phi, kb.World(0), options, &stats);
    if (!out.ok()) std::abort();
  });
  return Record("datalog_tc", n, ms, stats.datalog_rounds,
                stats.datalog_derived_tuples);
}

/// E6 stratified-negation program, evaluated directly.
BenchRecord DatalogStratified(int n) {
  datalog::Program program = *datalog::ParseProgram(R"(
    reach(Y) :- start(X), edge(X, Y).
    reach(Y) :- reach(X), edge(X, Y).
    unreachable(X) :- node(X), !reach(X).
  )");
  Database db = *Database::Create(
      *Schema::Of({{"node", 1}, {"start", 1}, {"edge", 2}}),
      {UnarySet(n, "n"), Relation(1, {Tuple{Name(V(0))}}),
       RandomEdges(n, 2.0, 61)});
  datalog::EvalStats stats;
  double ms = MeasureMs([&] {
    stats = datalog::EvalStats();
    auto out = datalog::Evaluate(program, db, &stats);
    if (!out.ok()) std::abort();
  });
  return Record("datalog_stratified", n, ms, stats.rounds, stats.derived_tuples);
}

/// E1 SAT path: copy-insert through grounding + CDCL (Theorem 4.1 membership
/// machinery).
BenchRecord DataComplexity(const std::string& name, const std::string& sentence,
                           int n, double degree, uint64_t seed) {
  Knowledgebase kb = GraphKb("R", RandomEdges(n, degree, seed));
  Formula phi = *ParseFormula(sentence);
  MuOptions options;
  options.strategy = MuStrategy::kSat;
  double ms = MeasureMs([&] {
    auto out = Tau(phi, kb, options);
    if (!out.ok()) std::abort();
  });
  return Record(name, n, ms, 0, 0);
}

int Main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_datalog.json";
  std::vector<BenchRecord> records;
  for (int n : {32, 64, 128, 256}) records.push_back(DatalogTransitiveClosure(n));
  for (int n : {64, 256}) records.push_back(DatalogStratified(n));
  for (int n : {8, 32}) {
    records.push_back(DataComplexity("data_complexity_copy",
                                     "forall x, y: R(x, y) -> S(x, y)", n, 3.0, 17));
  }
  for (int n : {16, 64}) {
    records.push_back(
        DataComplexity("data_complexity_vertex_drop", "forall y: !R(n0, y)", n, 4.0, 23));
  }
  for (int n : {16, 64}) {
    records.push_back(DataComplexity("data_complexity_choice",
                                     "R(z1, z2) | R(z3, z4) | R(z5, z6)", n, 3.0, 29));
  }
  if (!WriteBenchJson(path, records)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  for (const BenchRecord& r : records) {
    std::printf("%-28s n=%-4d %10.4f ms/op %12.2f ops/s  rounds=%zu derived=%zu\n",
                r.name.c_str(), r.n, r.ms_per_op, r.ops_per_sec, r.rounds,
                r.derived_tuples);
  }
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace
}  // namespace kbt::bench

int main(int argc, char** argv) { return kbt::bench::Main(argc, argv); }
