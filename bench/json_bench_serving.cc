/// \file
/// Machine-readable benchmark for the serving layer (serve::Server): mixed
/// read/write traffic with throughput and tail latency.
///
/// Each row runs a fixed operation count split over `threads` client threads
/// (each with its own pinned Session), with a deterministic fraction of the
/// operations being writes (serialized τ applies that publish new snapshots)
/// and the rest counterfactual/modal reads drawn from a small recurring
/// request pool — the shape the cache bank and batcher are built for. Reported
/// per row:
///
///   * ops_per_sec       — total operations / wall time,
///   * p50_ms / p99_ms   — read latency percentiles (reads only: writes are
///                         serialized and measured implicitly by throughput).
///
/// Rows of earlier revisions also carry `nobatch_*` fields: a single-thread
/// twin with the cache bank off, which the server no longer has (docs/perf.md).
///
/// Thread counts beyond the machine's cores measure oversubscription overhead,
/// honestly (the CI box is single-core; see ROADMAP perf notes).
///
/// Usage: json_bench_serving [output.json]   (default: BENCH_serving.json)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "serve/server.h"

namespace kbt::bench {
namespace {

constexpr const char* kRev = "pr8";

struct ServeBenchRecord {
  std::string name;
  int threads = 0;
  double read_frac = 0.0;
  int ops = 0;
  double ops_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

bool WriteServeBenchJson(const std::string& path,
                         const std::vector<ServeBenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fprintf(f, "{\n  \"benchmarks\": [\n") >= 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const ServeBenchRecord& r = records[i];
    ok = std::fprintf(
             f,
             "    {\"name\": \"%s\", \"rev\": \"%s\", \"threads\": %d, "
             "\"read_frac\": %.2f, \"ops\": %d, \"ops_per_sec\": %.3f, "
             "\"p50_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
             r.name.c_str(), kRev, r.threads, r.read_frac, r.ops, r.ops_per_sec,
             r.p50_ms, r.p99_ms, i + 1 < records.size() ? "," : "") >= 0 &&
         ok;
  }
  ok = std::fprintf(f, "  ]\n}\n") >= 0 && ok;
  return std::fclose(f) == 0 && ok;
}

/// Serving workload state: 3 worlds over a small domain, so reads exercise the
/// multi-world fold and writes keep the world count stable.
Knowledgebase ServingKb(int domain) {
  Schema schema = *Schema::Of({{"Dom", 1}, {"R", 2}, {"P", 1}, {"Q", 1}});
  Relation::Builder dom(1);
  for (int i = 0; i < domain; ++i) dom.Append({Name(V(i))});
  Relation dom_rel = dom.Build();
  Relation edges = ChainEdges(domain);
  std::vector<Database> worlds;
  for (int w = 0; w < 3; ++w) {
    Relation::Builder p(1);
    p.Append({Name(V(w % domain))});
    Database db = *Database::Create(
        schema, {dom_rel, edges, p.Build(), Relation(1)});
    worlds.push_back(std::move(db));
  }
  return *Knowledgebase::FromDatabases(std::move(worlds));
}

/// The recurring read pool: a handful of distinct requests, so the bank's
/// per-sentence caches pay off the way a production query mix would.
std::vector<serve::ReadRequest> ReadPool() {
  std::vector<serve::ReadRequest> pool;
  auto add = [&pool](std::vector<std::string> ants, std::string cons,
                     Modality m) {
    serve::ReadRequest r;
    r.antecedents = std::move(ants);
    r.consequent = std::move(cons);
    r.modality = m;
    pool.push_back(std::move(r));
  };
  add({}, "P(n0)", Modality::kPossibly);
  add({}, "Q(n1)", Modality::kNecessarily);
  add({"P(n1)"}, "P(n1)", Modality::kNecessarily);
  add({"Q(n2)"}, "P(n0) | Q(n2)", Modality::kPossibly);
  add({"P(n2)", "Q(n0)"}, "Q(n0)", Modality::kNecessarily);
  add({"R(n0, n2)"}, "R(n0, n2)", Modality::kPossibly);
  return pool;
}

/// The cycled write pool (constants recur, so the active domain — and with it
/// the grounding-cache key space — stabilizes after one cycle).
std::string WriteExpr(int i) {
  return "tau{Q(n" + std::to_string(i % 3) + ")}";
}

struct MixResult {
  double ops_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Read requests per ExecuteBatch call.
constexpr size_t kBatch = 8;

/// Runs `total_ops` at `read_frac` over `threads` sessions. Thread 0 owns the
/// writes (the write path is serialized anyway); batching groups each thread's
/// read stream into ExecuteBatch calls of kBatch.
MixResult RunMix(serve::Server& server, int threads, double read_frac,
                 int total_ops) {
  using Clock = std::chrono::steady_clock;
  const std::vector<serve::ReadRequest> pool = ReadPool();
  const int writes = static_cast<int>(total_ops * (1.0 - read_frac));
  const int reads = total_ops - writes;
  const int reads_per_thread = reads / threads;

  std::vector<std::vector<double>> latencies(threads);
  auto reader = [&](int t) {
    std::unique_ptr<serve::Session> session = server.StartSession();
    std::vector<double>& lat = latencies[t];
    lat.reserve(reads_per_thread);
    int done = 0;
    while (done < reads_per_thread) {
      size_t n = std::min<size_t>(kBatch, reads_per_thread - done);
      std::vector<serve::ReadRequest> requests;
      requests.reserve(n);
      for (size_t j = 0; j < n; ++j) {
        requests.push_back(pool[(t + done + j) % pool.size()]);
      }
      auto start = Clock::now();
      if (n > 1) {
        auto results = server.ExecuteBatch(*session, requests);
        if (!results.ok()) std::abort();
      } else {
        auto result = session->Query(requests[0]);
        if (!result.ok()) std::abort();
      }
      double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      // Batched: attribute the batch cost evenly — the client-visible latency
      // of a request that waited for its group.
      for (size_t j = 0; j < n; ++j) lat.push_back(ms / n);
      done += static_cast<int>(n);
    }
    // Thread 0 interleaves the whole write budget after its reads, inside the
    // timed region (wall time covers both sides of the mix).
    if (t == 0) {
      for (int i = 0; i < writes; ++i) {
        if (!server.Apply(WriteExpr(i)).ok()) std::abort();
      }
    }
  };

  auto start = Clock::now();
  if (threads == 1) {
    reader(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) workers.emplace_back(reader, t);
    for (std::thread& w : workers) w.join();
  }
  double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();

  std::vector<double> all;
  for (std::vector<double>& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());
  MixResult r;
  int executed = static_cast<int>(all.size()) + writes;
  r.ops_per_sec = wall_ms > 0 ? 1000.0 * executed / wall_ms : 0.0;
  if (!all.empty()) {
    r.p50_ms = all[all.size() / 2];
    r.p99_ms = all[std::min(all.size() - 1, all.size() * 99 / 100)];
  }
  return r;
}

int Main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_serving.json";
  std::vector<ServeBenchRecord> records;

  constexpr int kOps = 600;
  const double mixes[] = {1.0, 0.95, 0.5};

  for (double read_frac : mixes) {
    for (int threads : {1, 2, 4}) {
      serve::Server server(ServingKb(6));
      MixResult mix = RunMix(server, threads, read_frac, kOps);
      ServeBenchRecord r;
      r.name = "serve_mixed";
      r.threads = threads;
      r.read_frac = read_frac;
      r.ops = kOps;
      r.ops_per_sec = mix.ops_per_sec;
      r.p50_ms = mix.p50_ms;
      r.p99_ms = mix.p99_ms;
      records.push_back(r);
    }
  }

  if (!WriteServeBenchJson(path, records)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  for (const ServeBenchRecord& r : records) {
    std::printf("%-12s t=%d read=%.2f %10.2f ops/s  p50=%.4f ms p99=%.4f ms\n",
                r.name.c_str(), r.threads, r.read_frac, r.ops_per_sec, r.p50_ms,
                r.p99_ms);
  }
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace
}  // namespace kbt::bench

int main(int argc, char** argv) { return kbt::bench::Main(argc, argv); }
