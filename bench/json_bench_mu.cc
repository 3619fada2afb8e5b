/// \file
/// Machine-readable benchmark harness for the μ/SAT path: grounding → Tseitin →
/// CDCL minimal-model enumeration (the co-NP core of Theorem 4.2), plus raw
/// solver workloads in the style of bench_sat_reduction. Writes BENCH_mu.json so
/// every PR that touches the solver, the circuit layer, or the Tseitin encoder
/// leaves a diffable perf trajectory next to BENCH_datalog.json.
///
/// Rows are rev-tagged (like json_bench_tau's) so revisions coexist in
/// BENCH_mu.json. reused_levels / saved_props are the solver's trail-saving
/// counters; rows where they are 0 don't descend under assumptions (raw
/// single-solve CDCL workloads). The `<name>_noreuse` rows of earlier
/// revisions measured the solver without trail saving, which is retired
/// (docs/perf.md).
///
/// Usage: json_bench_mu [output.json]   (default: BENCH_mu.json; when the file
/// should keep older revisions, write elsewhere and append by hand.)

#include <array>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sat/solver.h"

namespace kbt::bench {
namespace {

/// Revision tag stamped on every row this harness writes. Bump per PR so rows
/// from different revisions coexist in BENCH_mu.json.
constexpr const char* kRev = "pr5";

/// One measured μ/SAT workload. Solver counters come from the last run.
struct MuBenchRecord {
  std::string name;
  int n = 0;
  double ms_per_op = 0.0;
  double ops_per_sec = 0.0;
  uint64_t solve_calls = 0;
  uint64_t conflicts = 0;
  uint64_t reused_levels = 0;
  uint64_t saved_props = 0;
  size_t minimal_models = 0;
};

bool WriteMuBenchJson(const std::string& path,
                      const std::vector<MuBenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fprintf(f, "{\n  \"benchmarks\": [\n") >= 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const MuBenchRecord& r = records[i];
    ok = std::fprintf(
             f,
             "    {\"name\": \"%s\", \"rev\": \"%s\", \"n\": %d, "
             "\"ms_per_op\": %.4f, "
             "\"ops_per_sec\": %.3f, \"solve_calls\": %llu, "
             "\"conflicts\": %llu, \"reused_levels\": %llu, "
             "\"saved_props\": %llu, \"minimal_models\": %zu}%s\n",
             r.name.c_str(), kRev, r.n, r.ms_per_op, r.ops_per_sec,
             static_cast<unsigned long long>(r.solve_calls),
             static_cast<unsigned long long>(r.conflicts),
             static_cast<unsigned long long>(r.reused_levels),
             static_cast<unsigned long long>(r.saved_props), r.minimal_models,
             i + 1 < records.size() ? "," : "") >= 0 &&
         ok;
  }
  ok = std::fprintf(f, "  ]\n}\n") >= 0 && ok;
  return std::fclose(f) == 0 && ok;
}

MuBenchRecord Record(const std::string& name, int n, double ms,
                     const MuStats& stats) {
  MuBenchRecord r;
  r.name = name;
  r.n = n;
  r.ms_per_op = ms;
  r.ops_per_sec = ms > 0 ? 1000.0 / ms : 0.0;
  r.solve_calls = stats.sat_solve_calls;
  r.conflicts = stats.sat_conflicts;
  r.reused_levels = stats.sat_reused_levels;
  r.saved_props = stats.sat_saved_propagations;
  r.minimal_models = stats.minimal_models;
  return r;
}

/// Measures one SAT-strategy μ call and appends its row.
void MeasureMu(const std::string& name, const Formula& phi, const Database& db,
               int n, std::vector<MuBenchRecord>* out) {
  MuOptions options;
  options.strategy = MuStrategy::kSat;
  MuStats stats;
  double ms = MeasureMs([&] {
    stats = MuStats();
    auto result = Mu(phi, db, options, &stats);
    if (!result.ok()) std::abort();
  });
  out->push_back(Record(name, n, ms, stats));
}

/// μ through the full grounding → Tseitin → CDCL enumeration pipeline.
void MuWorkload(const std::string& name, const std::string& sentence, int n,
                double degree, uint64_t seed, std::vector<MuBenchRecord>* out) {
  Knowledgebase kb = GraphKb("R", RandomEdges(n, degree, seed));
  Formula phi = *ParseFormula(sentence);
  MeasureMu(name, phi, kb.World(0), n, out);
}

/// φ_k = ∀x1..xk ((R(x1,x2) ∧ ... ∧ R(x_{k-1},x_k)) → S(x1,xk)): the
/// bench_expression_complexity shape, exponential grounding in k.
void MuPathDepth(int depth, std::vector<MuBenchRecord>* out) {
  std::vector<Symbol> vars;
  for (int i = 1; i <= depth; ++i) vars.push_back(Name("x" + std::to_string(i)));
  std::vector<Formula> body;
  for (int i = 0; i + 1 < depth; ++i) {
    body.push_back(Atom("R", {Term::Var(vars[static_cast<size_t>(i)]),
                              Term::Var(vars[static_cast<size_t>(i + 1)])}));
  }
  Formula head = Atom("S", {Term::Var(vars.front()), Term::Var(vars.back())});
  Formula phi = Forall(vars, Implies(And(std::move(body)), head));
  Knowledgebase kb = GraphKb("R", RandomEdges(5, 2.0, 31));
  MeasureMu("mu_path_depth", phi, kb.World(0), depth, out);
}

/// The orient sentence of json_bench_tau on a single dense world: a real
/// descend-and-block enumeration whose stage-2 solves pin every old atom —
/// the assumption-trail-reuse target shape.
void MuOrient(int n, double degree, uint64_t seed,
              std::vector<MuBenchRecord>* out) {
  Knowledgebase kb = GraphKb("R", RandomEdges(n, degree, seed));
  Formula phi = *ParseFormula(
      "forall x, y: (R(x, y) & !R(y, x)) -> (S(x, y) & !S(y, x))");
  MeasureMu("mu_orient", phi, kb.World(0), n, out);
}

/// Raw CDCL on random 3CNF at the given clause/variable ratio (the
/// bench_sat_reduction direct-solver workload, scaled up to stress the clause
/// store rather than the grounding).
MuBenchRecord DirectCdcl(const std::string& name, int num_vars, double ratio,
                         uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> var(0, num_vars - 1);
  std::bernoulli_distribution sign(0.5);
  int num_clauses = static_cast<int>(ratio * num_vars);
  std::vector<std::array<sat::Lit, 3>> clauses;
  clauses.reserve(static_cast<size_t>(num_clauses));
  for (int c = 0; c < num_clauses; ++c) {
    clauses.push_back({sat::MkLit(var(rng), sign(rng)),
                       sat::MkLit(var(rng), sign(rng)),
                       sat::MkLit(var(rng), sign(rng))});
  }
  uint64_t conflicts = 0;
  double ms = MeasureMs([&] {
    sat::Solver solver;
    for (int i = 0; i < num_vars; ++i) solver.NewVar();
    for (const auto& clause : clauses) {
      solver.AddClause({clause[0], clause[1], clause[2]});
    }
    auto result = solver.Solve();
    static_cast<void>(result);
    conflicts = solver.stats().conflicts;
  });
  MuStats stats;
  stats.sat_solve_calls = 1;
  stats.sat_conflicts = conflicts;
  return Record(name, num_vars, ms, stats);
}

/// Descend-and-block over random 3CNF: enumerate models, pinning a canonical
/// prefix of the variables per solve — the μ descent's solver call pattern
/// isolated from grounding. The row's reused_levels counter is the direct
/// evidence of trail saving.
void DirectDescent(const std::string& name, int num_vars, double ratio,
                   uint64_t seed, std::vector<MuBenchRecord>* out) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> var(0, num_vars - 1);
  std::bernoulli_distribution sign(0.5);
  int num_clauses = static_cast<int>(ratio * num_vars);
  std::vector<std::array<sat::Lit, 3>> clauses;
  clauses.reserve(static_cast<size_t>(num_clauses));
  for (int c = 0; c < num_clauses; ++c) {
    clauses.push_back({sat::MkLit(var(rng), sign(rng)),
                       sat::MkLit(var(rng), sign(rng)),
                       sat::MkLit(var(rng), sign(rng))});
  }
  uint64_t solve_calls = 0, conflicts = 0, reused = 0, saved = 0;
  double ms = MeasureMs([&] {
    sat::Solver solver;
    for (int i = 0; i < num_vars; ++i) solver.NewVar();
    for (const auto& clause : clauses) {
      solver.AddClause({clause[0], clause[1], clause[2]});
    }
    // Minimize-true-vars greedily, μ-style: pin the false set (canonical
    // variable order), guard each refinement with a fresh activation
    // literal placed last, block the fixpoint, repeat up to 16 models.
    // Guard retirement is deferred to the next enumeration probe exactly as
    // the μ descent does — an eager ¬act unit would surrender the retained
    // trail between refinement solves.
    std::vector<sat::Lit> assumptions;
    std::vector<sat::Lit> guard;
    std::vector<sat::Var> retired;
    for (int model = 0; model < 16; ++model) {
      for (sat::Var act : retired) solver.AddClause({sat::MkLit(act, true)});
      retired.clear();
      if (solver.Solve() == sat::SolveResult::kUnsat) break;
      std::vector<int8_t> value(static_cast<size_t>(num_vars), 0);
      for (int v = 0; v < num_vars; ++v) value[v] = solver.ModelValue(v) ? 1 : 0;
      for (;;) {
        guard.clear();
        sat::Var act = solver.NewVar();
        guard.push_back(sat::MkLit(act, true));
        for (int v = 0; v < num_vars; ++v) {
          if (value[v]) guard.push_back(sat::MkLit(v, true));
        }
        if (guard.size() == 1) break;  // Nothing left to shrink.
        solver.AddClause(guard);
        assumptions.clear();
        for (int v = 0; v < num_vars; ++v) {
          if (!value[v]) assumptions.push_back(sat::MkLit(v, true));
        }
        assumptions.push_back(sat::MkLit(act));
        sat::SolveResult r = solver.Solve(assumptions);
        retired.push_back(act);
        solver.SetPhase(act, false);
        if (r == sat::SolveResult::kUnsat) break;
        for (int v = 0; v < num_vars; ++v) {
          value[v] = solver.ModelValue(v) ? 1 : 0;
        }
      }
      // Block this minimal model exactly.
      guard.clear();
      for (int v = 0; v < num_vars; ++v) {
        guard.push_back(sat::MkLit(v, value[v] != 0));
      }
      if (!solver.AddClause(guard)) break;
    }
    solve_calls = solver.stats().solve_calls;
    conflicts = solver.stats().conflicts;
    reused = solver.stats().reused_assumption_levels;
    saved = solver.stats().saved_propagations;
  });
  MuStats stats;
  stats.sat_solve_calls = solve_calls;
  stats.sat_conflicts = conflicts;
  stats.sat_reused_levels = reused;
  stats.sat_saved_propagations = saved;
  out->push_back(Record(name, num_vars, ms, stats));
}

/// The paper-motivated serving shape: one encoded base formula, a long chain
/// of hypothetical queries whose assumption vector differs from the previous
/// one by a small tail delta. Trail saving re-propagates only the delta per
/// query instead of re-deciding all `pins` levels.
void AssumptionChain(const std::string& name, int num_vars, double ratio,
                     int pins, int queries, uint64_t seed,
                     std::vector<MuBenchRecord>* out) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> var(0, num_vars - 1);
  std::bernoulli_distribution sign(0.5);
  int num_clauses = static_cast<int>(ratio * num_vars);
  std::vector<std::array<sat::Lit, 3>> clauses;
  clauses.reserve(static_cast<size_t>(num_clauses));
  for (int c = 0; c < num_clauses; ++c) {
    clauses.push_back({sat::MkLit(var(rng), sign(rng)),
                       sat::MkLit(var(rng), sign(rng)),
                       sat::MkLit(var(rng), sign(rng))});
  }
  // One fixed mutation schedule: flip one of the last 8 pins.
  std::vector<int> flip_schedule;
  std::uniform_int_distribution<int> tail(pins - 8, pins - 1);
  for (int q = 0; q < queries; ++q) flip_schedule.push_back(tail(rng));
  MuStats stats;
  double ms = MeasureMs([&] {
    sat::Solver solver;
    for (int i = 0; i < num_vars; ++i) solver.NewVar();
    for (const auto& clause : clauses) {
      solver.AddClause({clause[0], clause[1], clause[2]});
    }
    std::vector<sat::Lit> assumptions;
    for (int i = 0; i < pins; ++i) assumptions.push_back(sat::MkLit(i));
    for (int q = 0; q < queries; ++q) {
      size_t at = static_cast<size_t>(flip_schedule[static_cast<size_t>(q)]);
      assumptions[at] = sat::Negate(assumptions[at]);
      auto r = solver.Solve(assumptions);
      static_cast<void>(r);
    }
    stats.sat_solve_calls = solver.stats().solve_calls;
    stats.sat_conflicts = solver.stats().conflicts;
    stats.sat_reused_levels = solver.stats().reused_assumption_levels;
    stats.sat_saved_propagations = solver.stats().saved_propagations;
  });
  ms /= queries;  // Per query, the serving-rate view.
  out->push_back(Record(name, num_vars, ms, stats));
}

/// Pigeonhole PHP(n+1, n): resolution-hard UNSAT, heavy on conflict analysis,
/// clause learning and the learned-clause store.
MuBenchRecord Pigeonhole(int holes) {
  uint64_t conflicts = 0;
  double ms = MeasureMs([&] {
    sat::Solver s;
    int pigeons = holes + 1;
    std::vector<std::vector<sat::Var>> grid(
        static_cast<size_t>(pigeons), std::vector<sat::Var>(static_cast<size_t>(holes)));
    for (auto& row : grid) {
      for (auto& v : row) v = s.NewVar();
    }
    for (int p = 0; p < pigeons; ++p) {
      std::vector<sat::Lit> some;
      for (int h = 0; h < holes; ++h) {
        some.push_back(sat::MkLit(grid[static_cast<size_t>(p)][static_cast<size_t>(h)]));
      }
      s.AddClause(some);
    }
    for (int h = 0; h < holes; ++h) {
      for (int p1 = 0; p1 < pigeons; ++p1) {
        for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
          s.AddClause({sat::MkLit(grid[static_cast<size_t>(p1)][static_cast<size_t>(h)], true),
                       sat::MkLit(grid[static_cast<size_t>(p2)][static_cast<size_t>(h)], true)});
        }
      }
    }
    auto result = s.Solve();
    static_cast<void>(result);
    conflicts = s.stats().conflicts;
  });
  MuStats stats;
  stats.sat_solve_calls = 1;
  stats.sat_conflicts = conflicts;
  return Record("sat_pigeonhole", holes, ms, stats);
}

int Main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_mu.json";
  std::vector<MuBenchRecord> records;
  // μ pipeline workloads (grounding + incremental Tseitin + enumeration).
  for (int n : {8, 32}) {
    MuWorkload("mu_copy_insert", "forall x, y: R(x, y) -> S(x, y)", n, 3.0, 17,
               &records);
  }
  for (int n : {16, 64}) {
    MuWorkload("mu_vertex_drop", "forall y: !R(n0, y)", n, 4.0, 23, &records);
  }
  for (int n : {16, 64}) {
    MuWorkload("mu_choice", "R(z1, z2) | R(z3, z4) | R(z5, z6)", n, 3.0, 29,
               &records);
  }
  for (int depth : {3, 4, 5}) MuPathDepth(depth, &records);
  for (int n : {8, 12}) MuOrient(n, 3.0, 41, &records);
  // Enumeration-heavy: each R edge independently chooses an S orientation, so
  // the minimal models are the (hundreds of) incomparable choice sets — one
  // long descend-and-block run whose stage-2 solves pin every atom.
  {
    Knowledgebase kb = GraphKb("R", RandomEdges(5, 2.0, 53));
    Formula phi =
        *ParseFormula("forall x, y: R(x, y) -> (S(x, y) | S(y, x))");
    MeasureMu("mu_orient_enum", phi, kb.World(0), 5, &records);
  }
  // Raw solver workloads (clause arena, watchers, learned-clause store).
  records.push_back(DirectCdcl("sat_random3_easy", 120, 3.0, 67));
  records.push_back(DirectCdcl("sat_random3_hard", 60, 4.2, 67));
  // Descend-and-block over hard random 3CNF: the μ solver-call pattern
  // isolated from grounding, at two sizes.
  DirectDescent("sat_descent_hard", 60, 4.2, 67, &records);
  DirectDescent("sat_descent_wide", 120, 4.2, 71, &records);
  // The serving workload of the ISSUE's motivation: a long chain of
  // hypothetical queries, each differing from the last by one pin flip.
  AssumptionChain("sat_assumption_chain", 200, 2.5, 80, 400, 79, &records);
  records.push_back(Pigeonhole(6));
  if (!WriteMuBenchJson(path, records)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  for (const MuBenchRecord& r : records) {
    std::printf(
        "%-26s n=%-4d %10.4f ms/op %12.2f ops/s  solves=%llu conflicts=%llu "
        "reused=%llu saved=%llu models=%zu\n",
        r.name.c_str(), r.n, r.ms_per_op, r.ops_per_sec,
        static_cast<unsigned long long>(r.solve_calls),
        static_cast<unsigned long long>(r.conflicts),
        static_cast<unsigned long long>(r.reused_levels),
        static_cast<unsigned long long>(r.saved_props), r.minimal_models);
  }
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace
}  // namespace kbt::bench

int main(int argc, char** argv) { return kbt::bench::Main(argc, argv); }
