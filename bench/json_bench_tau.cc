/// \file
/// Machine-readable benchmark harness for the τ executor: the world-parallel
/// fan-out over exec/ (per-worker solver pools, domain-keyed grounding and
/// frozen-CNF-prefix caches, hash-based union). Each workload is measured —
///
///   * pr2     — the pre-executor loop (fresh μ per world, repeated pairwise
///               UnionWith), reconstructed here as the baseline,
///   * t1      — threads=1, grounding cache + frozen-CNF-prefix solver forks,
///   * t2/t4   — Tau with 2 and 4 worker threads,
///
/// and tagged with `rev` so rows can be appended to BENCH_tau.json next to
/// earlier revisions' rows — the perf trajectory stays diffable across PRs.
/// speedup_vs_pr2 is the headline number; the cache and prefix hit counters
/// show the grounding and encoding reuse behind it. The `_t1_nocache` and
/// `_t1_noprefix` rows of earlier revisions measured τ with that sharing
/// switched off, which is no longer possible (docs/perf.md).
///
/// Usage: json_bench_tau [output.json]   (default: BENCH_tau.json; when the
/// file should keep older revisions, write elsewhere and append by hand.)

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"

namespace kbt::bench {
namespace {

/// Revision tag stamped on every row this harness writes. Bump per PR so rows
/// from different revisions coexist in BENCH_tau.json.
constexpr const char* kRev = "pr7";

struct TauBenchRecord {
  std::string name;
  int worlds = 0;
  int threads = 1;
  double ms_per_op = 0.0;
  double ops_per_sec = 0.0;
  double speedup_vs_pr2 = 1.0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t prefix_hits = 0;
  uint64_t prefix_misses = 0;
  uint64_t reused_levels = 0;  ///< Assumption levels retained across descent
                               ///< solves (sat::Solver trail saving, PR 5).
  size_t output_databases = 0;
  /// Resident bytes per world of the input kb in the delta-structured
  /// representation (shared base + overlays, buffers deduplicated) vs what the
  /// same worlds cost as independent flat databases (PR 7).
  size_t mem_bytes_per_world = 0;
  size_t flat_bytes_per_world = 0;
};

/// Bytes the kb's worlds would occupy as independent flat databases: every
/// relation buffer charged to every world that references it.
size_t FlatHeapBytes(const Knowledgebase& kb) {
  size_t total = 0;
  for (size_t i = 0; i < kb.size(); ++i) {
    Database world = kb.World(i);
    for (size_t p = 0; p < world.schema().size(); ++p) {
      total += world.relation_at(p).HeapBytes();
    }
  }
  return total;
}

void StampMemoryColumns(const Knowledgebase& kb, TauBenchRecord* r) {
  if (kb.empty()) return;
  r->mem_bytes_per_world = kb.ApproxHeapBytes() / kb.size();
  r->flat_bytes_per_world = FlatHeapBytes(kb) / kb.size();
}

bool WriteTauBenchJson(const std::string& path,
                       const std::vector<TauBenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fprintf(f, "{\n  \"benchmarks\": [\n") >= 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const TauBenchRecord& r = records[i];
    ok = std::fprintf(
             f,
             "    {\"name\": \"%s\", \"rev\": \"%s\", \"worlds\": %d, "
             "\"threads\": %d, "
             "\"ms_per_op\": %.4f, \"ops_per_sec\": %.3f, "
             "\"speedup_vs_pr2\": %.2f, \"cache_hits\": %llu, "
             "\"cache_misses\": %llu, \"prefix_hits\": %llu, "
             "\"prefix_misses\": %llu, \"reused_levels\": %llu, "
             "\"output_databases\": %zu, \"mem_bytes_per_world\": %zu, "
             "\"flat_bytes_per_world\": %zu}%s\n",
             r.name.c_str(), kRev, r.worlds, r.threads, r.ms_per_op,
             r.ops_per_sec, r.speedup_vs_pr2,
             static_cast<unsigned long long>(r.cache_hits),
             static_cast<unsigned long long>(r.cache_misses),
             static_cast<unsigned long long>(r.prefix_hits),
             static_cast<unsigned long long>(r.prefix_misses),
             static_cast<unsigned long long>(r.reused_levels),
             r.output_databases, r.mem_bytes_per_world, r.flat_bytes_per_world,
             i + 1 < records.size() ? "," : "") >= 0 &&
         ok;
  }
  ok = std::fprintf(f, "  ]\n}\n") >= 0 && ok;
  return std::fclose(f) == 0 && ok;
}

/// The pre-executor τ loop, kept as the measurement baseline: a fresh μ per
/// world (no shared grounding, no solver reuse) and repeated pairwise union
/// (each step re-sorting the accumulated result).
Knowledgebase TauPr2Baseline(const Formula& sentence, const Knowledgebase& kb,
                             const MuOptions& options) {
  Knowledgebase result;
  bool first = true;
  for (size_t w = 0; w < kb.size(); ++w) {
    const Database db = kb.World(w);
    Knowledgebase models = *Mu(sentence, db, options);
    if (first) {
      result = std::move(models);
      first = false;
    } else {
      result = *result.UnionWith(models);
    }
  }
  return result;
}

/// All 2^n S-colorings of an even cycle over E — the Theorem 5.1 construction
/// measured by bench_second_order. Every world shares one active domain.
Knowledgebase AllColorings(int n) {
  Relation::Builder edges(2);
  for (int i = 0; i < n; ++i) {
    edges.Append({Name(V(i)), Name(V((i + 1) % n))});
    edges.Append({Name(V((i + 1) % n)), Name(V(i))});
  }
  Database db = *Database::Create(*Schema::Of({{"E", 2}}), {edges.Build()});
  std::vector<Value> domain = db.ActiveDomain();
  Schema extended = *db.schema().Union(*Schema::Of({{"S", 1}}));
  std::vector<Database> worlds;
  for (uint64_t mask = 0; mask < (uint64_t{1} << domain.size()); ++mask) {
    Relation::Builder s(1);
    for (size_t i = 0; i < domain.size(); ++i) {
      if ((mask >> i) & 1) s.Append({domain[i]});
    }
    Database world = *db.ExtendTo(extended);
    world = *world.WithRelation("S", s.Build());
    worlds.push_back(std::move(world));
  }
  return *Knowledgebase::FromDatabases(std::move(worlds));
}

/// W random worlds over {Dom/1, R/2} with Dom pinning one shared active
/// domain, so the grounding cache collapses W groundings into one.
Knowledgebase RandomWorlds(int num_worlds, int domain_size, uint64_t seed) {
  Schema schema = *Schema::Of({{"Dom", 1}, {"R", 2}});
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution coin(0.35);
  Relation::Builder dom(1);
  for (int i = 0; i < domain_size; ++i) dom.Append({Name(V(i))});
  Relation dom_rel = dom.Build();
  std::vector<Database> worlds;
  for (int w = 0; w < num_worlds; ++w) {
    Relation::Builder r(2);
    for (int i = 0; i < domain_size; ++i) {
      for (int j = 0; j < domain_size; ++j) {
        if (coin(rng)) r.Append({Name(V(i)), Name(V(j))});
      }
    }
    worlds.push_back(*Database::Create(schema, {dom_rel, r.Build()}));
  }
  return *Knowledgebase::FromDatabases(std::move(worlds));
}

/// The prefix-sharing sweet spot: many worlds over one shared active domain,
/// each differing from a base world by only a few R tuples. Per world, τ's SAT
/// path re-derives just the defaults and the (small) model deltas; grounding,
/// Tseitin encoding and strategy planning are all shared.
Knowledgebase DeltaWorlds(int num_worlds, int domain_size, int flips,
                          uint64_t seed) {
  Schema schema = *Schema::Of({{"Dom", 1}, {"R", 2}});
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution coin(0.35);
  std::uniform_int_distribution<int> pick(0, domain_size - 1);
  Relation::Builder dom(1);
  for (int i = 0; i < domain_size; ++i) dom.Append({Name(V(i))});
  Relation dom_rel = dom.Build();
  Relation::Builder base_b(2);
  for (int i = 0; i < domain_size; ++i) {
    for (int j = 0; j < domain_size; ++j) {
      if (coin(rng)) base_b.Append({Name(V(i)), Name(V(j))});
    }
  }
  Relation base = base_b.Build();
  std::vector<Database> worlds;
  for (int w = 0; w < num_worlds; ++w) {
    Relation r = base;
    for (int f = 0; f < flips; ++f) {
      Value t[2] = {Name(V(pick(rng))), Name(V(pick(rng)))};
      TupleView tuple(t, 2);
      r = r.Contains(tuple) ? r.WithoutTuple(tuple) : r.WithTuple(tuple);
    }
    worlds.push_back(*Database::Create(schema, {dom_rel, std::move(r)}));
  }
  return *Knowledgebase::FromDatabases(std::move(worlds));
}

/// Measures one (workload, sentence) pair across the execution modes and
/// appends the records.
void MeasureWorkload(const std::string& name, const Formula& sentence,
                     const Knowledgebase& kb, std::vector<TauBenchRecord>* out) {
  MuOptions mu;
  double pr2_ms = MeasureMs([&] {
    Knowledgebase r = TauPr2Baseline(sentence, kb, mu);
    static_cast<void>(r);
  });
  {
    TauBenchRecord r;
    r.name = name + "_pr2";
    r.worlds = static_cast<int>(kb.size());
    r.threads = 1;
    r.ms_per_op = pr2_ms;
    r.ops_per_sec = pr2_ms > 0 ? 1000.0 / pr2_ms : 0.0;
    r.output_databases = TauPr2Baseline(sentence, kb, mu).size();
    StampMemoryColumns(kb, &r);
    out->push_back(r);
  }

  for (size_t threads : {1u, 2u, 4u}) {
    TauOptions options;
    options.mu = mu;
    options.threads = threads;
    TauStats stats;
    double ms = MeasureMs([&] {
      stats = TauStats();
      auto r = Tau(sentence, kb, options, &stats);
      if (!r.ok()) std::abort();
    });
    TauBenchRecord r;
    r.name = name + "_t" + std::to_string(threads);
    r.worlds = static_cast<int>(kb.size());
    r.threads = static_cast<int>(stats.threads_used);
    r.ms_per_op = ms;
    r.ops_per_sec = ms > 0 ? 1000.0 / ms : 0.0;
    r.speedup_vs_pr2 = ms > 0 ? pr2_ms / ms : 0.0;
    r.cache_hits = stats.ground_cache_hits;
    r.cache_misses = stats.ground_cache_misses;
    r.prefix_hits = stats.cnf_cache_hits;
    r.prefix_misses = stats.cnf_cache_misses;
    r.reused_levels = stats.mu.sat_reused_levels;
    r.output_databases = stats.output_databases;
    StampMemoryColumns(kb, &r);
    out->push_back(r);
  }
}

/// W distinct worlds over {Dom/1, R/2}, world w differing from a shared base
/// exactly at the R cells indexed by the set bits of w — deltas of O(log W)
/// tuples, distinct by construction, so the kb keeps all W worlds. The
/// many-worlds memory scenario: resident size must scale with Σ deltas, not
/// W × database.
Knowledgebase ManyDeltaWorlds(int num_worlds, int domain_size) {
  Schema schema = *Schema::Of({{"Dom", 1}, {"R", 2}});
  std::mt19937_64 rng(20260808);
  std::bernoulli_distribution coin(0.35);
  Relation::Builder dom(1);
  for (int i = 0; i < domain_size; ++i) dom.Append({Name(V(i))});
  Relation dom_rel = dom.Build();
  Relation::Builder base_b(2);
  for (int i = 0; i < domain_size; ++i) {
    for (int j = 0; j < domain_size; ++j) {
      if (coin(rng)) base_b.Append({Name(V(i)), Name(V(j))});
    }
  }
  Relation base = base_b.Build();
  const int cells = domain_size * domain_size;
  std::vector<Database> worlds;
  worlds.reserve(num_worlds);
  for (int w = 0; w < num_worlds; ++w) {
    Relation r = base;
    for (int bit = 0; bit < 31 && (w >> bit) != 0; ++bit) {
      if (((w >> bit) & 1) == 0) continue;
      int cell = bit % cells;
      Value t[2] = {Name(V(cell / domain_size)), Name(V(cell % domain_size))};
      TupleView tuple(t, 2);
      r = r.Contains(tuple) ? r.WithoutTuple(tuple) : r.WithTuple(tuple);
    }
    worlds.push_back(*Database::Create(schema, {dom_rel, std::move(r)}));
  }
  return *Knowledgebase::FromDatabases(std::move(worlds));
}

/// The many-worlds rows: memory columns on thousands of worlds plus one timed
/// τ on the cheap ground-insert path (the pr2 baseline's quadratic pairwise
/// union is hopeless at this scale, so speedup_vs_pr2 is left at 1).
void MeasureManyWorlds(const std::string& name, const Formula& sentence,
                       const Knowledgebase& kb,
                       std::vector<TauBenchRecord>* out) {
  for (size_t threads : {1u, 4u}) {
    TauOptions options;
    options.threads = threads;
    TauStats stats;
    double ms = MeasureMs([&] {
      stats = TauStats();
      auto r = Tau(sentence, kb, options, &stats);
      if (!r.ok()) std::abort();
    });
    TauBenchRecord r;
    r.name = name + (threads == 1 ? "_t1" : "_t4");
    r.worlds = static_cast<int>(kb.size());
    r.threads = static_cast<int>(stats.threads_used);
    r.ms_per_op = ms;
    r.ops_per_sec = ms > 0 ? 1000.0 / ms : 0.0;
    r.cache_hits = stats.ground_cache_hits;
    r.cache_misses = stats.ground_cache_misses;
    r.prefix_hits = stats.cnf_cache_hits;
    r.prefix_misses = stats.cnf_cache_misses;
    r.output_databases = stats.output_databases;
    StampMemoryColumns(kb, &r);
    out->push_back(r);
  }
}

int Main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_tau.json";
  std::vector<TauBenchRecord> records;

  // The bench_second_order construction: 2^n same-domain worlds, μ resolved by
  // the auto dispatcher (definitional here), union-dominated at large n.
  Formula bipartite = *ParseSentence(
      "(forall x, y: E(x, y) -> !(S(x) <-> S(y))) -> Ans()");
  MeasureWorkload("tau_colorings_n6", bipartite, AllColorings(6), &records);
  MeasureWorkload("tau_colorings_n8", bipartite, AllColorings(8), &records);

  // SAT-strategy μ per world (head is a conjunction — no fast path applies):
  // grounding cache + per-worker solver reuse carry this one.
  Formula orient = *ParseSentence(
      "forall x, y: (R(x, y) & !R(y, x)) -> (S(x, y) & !S(y, x))");
  MeasureWorkload("tau_sat_orient_w8", orient, RandomWorlds(8, 4, 101), &records);
  MeasureWorkload("tau_sat_orient_w32", orient, RandomWorlds(32, 4, 103),
                  &records);

  // Ground insert over many worlds: the Theorem 4.7 reference path, one shared
  // grounding for the whole fan-out.
  Formula ground_insert = *ParseSentence("R(n0, n1) & !R(n1, n0)");
  MeasureWorkload("tau_ground_insert_w32", ground_insert, RandomWorlds(32, 4, 107),
                  &records);

  // Many worlds, few deltas: 64 worlds over a 6-value domain differing from
  // one base by ≤2 tuples — the prefix-sharing sweet spot. The frozen prefix
  // amortizes the (domain²-sized) encoding across all worlds; per-world cost
  // is the defaults pass plus the (tiny) enumeration.
  MeasureWorkload("tau_sat_delta_w64", orient, DeltaWorlds(64, 6, 2, 113),
                  &records);

  // Thousands of worlds, each a few tuples off one shared base: the
  // delta-structured representation's memory case (PR 7). mem_bytes_per_world
  // must stay O(delta) while flat_bytes_per_world scales with the database.
  MeasureManyWorlds("tau_many_worlds_w1024", ground_insert,
                    ManyDeltaWorlds(1024, 32), &records);
  MeasureManyWorlds("tau_many_worlds_w4096", ground_insert,
                    ManyDeltaWorlds(4096, 32), &records);

  if (!WriteTauBenchJson(path, records)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  for (const TauBenchRecord& r : records) {
    std::printf(
        "%-28s worlds=%-5d threads=%d %10.4f ms/op %8.2fx vs pr2  "
        "cache %llu/%llu  prefix %llu/%llu  reused=%llu  out=%zu  "
        "mem/world=%zuB flat/world=%zuB\n",
        r.name.c_str(), r.worlds, r.threads, r.ms_per_op, r.speedup_vs_pr2,
        static_cast<unsigned long long>(r.cache_hits),
        static_cast<unsigned long long>(r.cache_misses),
        static_cast<unsigned long long>(r.prefix_hits),
        static_cast<unsigned long long>(r.prefix_misses),
        static_cast<unsigned long long>(r.reused_levels), r.output_databases,
        r.mem_bytes_per_world, r.flat_bytes_per_world);
  }
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace
}  // namespace kbt::bench

int main(int argc, char** argv) { return kbt::bench::Main(argc, argv); }
