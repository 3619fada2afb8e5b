// The traced pass: per-layer numbers for one workload, measured from outside
// the program. It re-sends a seeded sample of the workload's reads to a real
// kbt_server with client spans, then replays the same inputs through each
// module's public functions in-process, one span per call. Every per-layer
// metric is computed from those spans (or, for ratios, from the counters the
// calls return), and the spans are written as a Chrome trace.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <random>
#include <set>
#include <thread>

#include "core/kbt.h"
#include "exec/pool.h"
#include "logic/grounder.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/transport.h"
#include "proc.h"
#include "repl/follower.h"
#include "repl/primary.h"
#include "sat/tseitin.h"
#include "serve/cache_bank.h"
#include "serve/server.h"
#include "store/checkpoint.h"
#include "store/durable_engine.h"
#include "store/recovery.h"
#include "store/wal.h"
#include "workloads.h"

namespace kbtbench {
namespace {

using kbt::Formula;
using kbt::Knowledgebase;

/// Calls into one layer, recorded in memory and written out at the end.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int Begin(const std::string& name, uint32_t req, int parent = -1) {
    auto it = name_ids_.find(name);
    if (it == name_ids_.end()) {
      it = name_ids_.emplace(name, static_cast<int>(names_.size())).first;
      names_.push_back(name);
    }
    spans_.push_back({req, it->second, parent, Now(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end_ns = Now(); }
  double Us(int id) const {
    return (spans_[id].end_ns - spans_[id].start_ns) / 1000.0;
  }

  /// Durations in µs of every span named `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    auto it = name_ids_.find(name);
    if (it == name_ids_.end()) return out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == it->second) out.push_back(Us(static_cast<int>(i)));
    }
    return out;
  }
  /// Total µs per request of the spans named `name`.
  std::map<uint32_t, double> PerRequest(const std::string& name) const {
    std::map<uint32_t, double> out;
    auto it = name_ids_.find(name);
    if (it == name_ids_.end()) return out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == it->second) out[spans_[i].req] += Us(static_cast<int>(i));
    }
    return out;
  }

  bool WriteChrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\": " << JsonString(names_[s.name])
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << JsonNumber(s.start_ns / 1000.0)
          << ", \"dur\": " << JsonNumber((s.end_ns - s.start_ns) / 1000.0)
          << ", \"args\": {\"req\": " << s.req << ", \"parent\": " << s.parent
          << ", \"id\": " << i << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    uint32_t req;
    int name;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, int> name_ids_;
};

class Scope {
 public:
  Scope(Tracer& t, const std::string& name, uint32_t req, int parent = -1)
      : t_(t), id_(t.Begin(name, req, parent)) {}
  ~Scope() { t_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// Runs body(i) for i = 0, 1, ... < n until `budget_ms` has passed, but at
/// least min(n, floor) times. Returns how many ran.
size_t Budgeted(size_t n, double budget_ms, size_t floor,
                const std::function<void(size_t)>& body) {
  Clock::time_point start = Clock::now();
  size_t i = 0;
  for (; i < n; ++i) {
    if (i >= floor && MsSince(start) >= budget_ms) break;
    body(i);
  }
  return i;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / v.size();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Traced {
  Traced(const RunOptions& o, const Inputs& in, RunResult& r) : o(o), in(in), r(r) {}

  const RunOptions& o;
  const Inputs& in;
  RunResult& r;
  Tracer tracer;
  double budget_ms = 250.0;  ///< Per stage.
  std::vector<uint32_t> sample;  ///< Pool indices of the seeded sample.
  /// Per sample position: the first answer any path produced (-1 none).
  std::vector<int> answers;

  void Agree(size_t k, bool holds, const char* path) {
    int h = holds ? 1 : 0;
    if (answers[k] < 0) {
      answers[k] = h;
    } else if (answers[k] != h) {
      r.Fail(std::string(path) + " answer differs on sample request " +
             std::to_string(k));
    }
  }
  void Count(const kbt::Status& s, const char* what) {
    ++r.attempted;
    if (!s.ok()) {
      ++r.failed;
      r.Fail(std::string(what) + ": " + s.ToString());
    }
  }
  std::string Dir(const char* name) const { return o.work_dir + "/" + name; }
};

// ---------------------------------------------------------------------------
// net: the real server, one connection, closed loop over the sample.

void NetLayer(Traced& t) {
  const std::string store = t.Dir("net");
  kbt::Status copied = CopyTree(t.Dir("gen"), store);
  if (!copied.ok()) return t.Count(copied, "copy store");
  kbt::StatusOr<Server> server =
      StartServer(t.o.bin_dir + "/kbt_server",
                  {"--init", t.in.decls, "--store", store, "--port", "0"},
                  t.Dir("server.log"));
  if (!server.ok()) return t.Count(server.status(), "start kbt_server");
  kbt::net::ClientOptions options;
  options.max_attempts = 1;
  kbt::net::Client client = kbt::net::Client::Dial("127.0.0.1", server->port, options);
  uint64_t rejects = 0;
  auto read = [&](size_t k) -> double {
    const Request& req = t.in.reads[t.sample[k]];
    Clock::time_point t0 = Clock::now();
    auto result = client.Read(req.antecedents, req.consequent, req.necessarily);
    double us = MsSince(t0) * 1000.0;
    ++t.r.attempted;
    if (!result.ok()) {
      ++t.r.failed;
      rejects += result.status().code() == kbt::StatusCode::kUnavailable;
    } else {
      t.Agree(k, result->holds, "kbt_server");
    }
    return us;
  };
  // Warm pass, then the same requests untraced and traced.
  size_t n = Budgeted(t.sample.size(), t.budget_ms, 8, [&](size_t k) { read(k); });
  std::vector<double> untraced, traced;
  for (size_t k = 0; k < n; ++k) untraced.push_back(read(k));
  for (size_t k = 0; k < n; ++k) {
    Scope s(t.tracer, "client.read", static_cast<uint32_t>(k));
    read(k);
  }
  traced = t.tracer.Durations("client.read");
  kbt::StatusOr<kbt::net::WireStatsReply> stats = client.Stats();
  client.Disconnect();
  t.Count(server->child->Drain(30.0), "drain kbt_server");
  double hits = 0, misses = 0;
  if (stats.ok()) {
    for (const auto& [name, value] : stats->counters) {
      if (name == "bank_hits") hits = static_cast<double>(value);
      if (name == "bank_misses") misses = static_cast<double>(value);
    }
  }
  t.r.per_layer.Set("net.read_rtt_us", Median(traced), "us");
  t.r.per_layer.Set("net.rejects", static_cast<double>(t.r.rejected + rejects), "count");
  t.r.per_layer.Set("serve.bank_hit_ratio", Ratio(hits, hits + misses), "ratio");
  t.r.per_layer.Set("trace.overhead", Ratio(Median(traced), Median(untraced)) - 1.0,
                  "ratio");
  t.r.detail.Set("net.sample", static_cast<double>(n), "count");
}

/// Encode and decode of one read request and its reply, as the wire does.
void CodecLayer(Traced& t) {
  std::vector<double> per_request;
  Budgeted(1u << 20, t.budget_ms / 2, 1, [&](size_t i) {
    const Request& req = t.in.reads[t.sample[i % t.sample.size()]];
    Clock::time_point t0 = Clock::now();
    kbt::net::WireReadRequest wire;
    wire.antecedents = req.antecedents;
    wire.consequent = req.consequent;
    wire.modality = req.necessarily ? 0 : 1;
    // Header checks then payload decode, as the receiving side runs them.
    auto received = [](const kbt::StatusOr<std::string>& frame,
                       const std::function<bool(std::string_view)>& decode) {
      if (!frame.ok()) return false;
      std::string_view header(frame->data(), kbt::net::kHeaderSize);
      std::string_view body(frame->data() + kbt::net::kHeaderSize,
                            frame->size() - kbt::net::kHeaderSize);
      return kbt::net::DecodeHeader(header).ok() &&
             kbt::net::VerifyPayload(header, body).ok() && decode(body);
    };
    bool ok =
        received(kbt::net::EncodeFrame(kbt::net::FrameType::kReadRequest,
                                       kbt::net::EncodeReadRequest(wire), 1),
                 [](std::string_view b) { return kbt::net::DecodeReadRequest(b).ok(); }) &&
        received(kbt::net::EncodeFrame(kbt::net::FrameType::kReadReply,
                                       kbt::net::EncodeReadReply({true, 7}), 1),
                 [](std::string_view b) { return kbt::net::DecodeReadReply(b).ok(); });
    per_request.push_back(MsSince(t0) * 1e6);
    if (!ok) t.r.Fail("wire codec round trip failed");
  });
  t.r.per_layer.Set("net.codec_ns", Median(per_request), "ns");
}

// ---------------------------------------------------------------------------
// serve: an in-process serve::Server on the same kb and sample.

kbt::serve::ReadRequest ServeRequest(const Request& r) {
  kbt::serve::ReadRequest q;
  q.antecedents = r.antecedents;
  q.consequent = r.consequent;
  q.modality = r.necessarily ? kbt::Modality::kNecessarily : kbt::Modality::kPossibly;
  return q;
}

void ServeLayer(Traced& t) {
  kbt::serve::Server server(t.in.kb);
  std::unique_ptr<kbt::serve::Session> session = server.StartSession();
  size_t n = Budgeted(t.sample.size(), t.budget_ms, 8, [&](size_t k) {
    session->Query(ServeRequest(t.in.reads[t.sample[k]]));
  });
  for (size_t k = 0; k < n; ++k) {
    Scope s(t.tracer, "serve.query", static_cast<uint32_t>(k));
    auto result = session->Query(ServeRequest(t.in.reads[t.sample[k]]));
    t.Count(result.status(), "Session::Query");
    if (result.ok()) t.Agree(k, result->holds, "Session::Query");
  }
  std::vector<double> q = t.tracer.Durations("serve.query");
  t.r.per_layer.Set("serve.query_us", Median(q), "us");
  t.r.per_layer.Set("serve.query_p99_us", Percentile(q, 0.99), "us");

  // Closed-loop throughput, one session per thread.
  auto throughput = [&](int threads) {
    std::atomic<uint64_t> done{0};
    Clock::time_point start = Clock::now();
    std::vector<std::thread> workers;
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        auto s = server.StartSession();
        for (size_t i = w; MsSince(start) < t.budget_ms; ++i) {
          s->Query(ServeRequest(t.in.reads[t.sample[i % n]]));
          done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    return done.load() / (MsSince(start) / 1000.0);
  };
  double t1 = throughput(1);
  double t4 = throughput(4);
  t.r.per_layer.Set("serve.read_scaling_t4", Ratio(t4, t1), "ratio");

  // Snapshot acquisition with four threads contending.
  std::vector<double> ns_per_call(4);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Clock::time_point start = Clock::now();
      uint64_t calls = 0;
      while (MsSince(start) < t.budget_ms / 4) {
        for (int i = 0; i < 256; ++i) {
          std::shared_ptr<const kbt::serve::Snapshot> snap = server.CurrentSnapshot();
          calls += snap != nullptr;
        }
      }
      ns_per_call[w] = MsSince(start) * 1e6 / calls;
    });
  }
  for (std::thread& w : workers) w.join();
  t.r.per_layer.Set("serve.snapshot_ns", Mean(ns_per_call), "ns");

  // The bank on its own, replaying the sample's antecedent stream.
  kbt::serve::QueryCacheBank bank(64);
  std::vector<double> gets;
  Budgeted(1u << 20, t.budget_ms / 2, 1, [&](size_t i) {
    for (const std::string& a : t.in.reads[t.sample[i % t.sample.size()]].antecedents) {
      Clock::time_point t0 = Clock::now();
      auto entry = bank.Get(a);
      gets.push_back(MsSince(t0) * 1000.0);
      if (!entry.ok()) t.r.Fail("QueryCacheBank::Get: " + entry.status().ToString());
    }
  });
  t.r.per_layer.Set("serve.bank_get_us", Mean(gets), "us");
}

// ---------------------------------------------------------------------------
// core, logic, eval, rel: the chain through the oracle path and its parts.

void ChainLayer(Traced& t) {
  Budgeted(t.sample.size(), t.budget_ms, 8, [&](size_t k) {
    Scope s(t.tracer, "core.chain", static_cast<uint32_t>(k));
    kbt::StatusOr<bool> holds = PlainAnswer(t.in.kb, t.in.reads[t.sample[k]]);
    t.Count(holds.status(), "NestedCounterfactual");
    if (holds.ok()) t.Agree(k, *holds, "NestedCounterfactual");
  });
  t.r.per_layer.Set("core.chain_cold_us", Median(t.tracer.Durations("core.chain")), "us");
}

/// One read taken apart: parse, then per antecedent μ on every flat world and
/// the union, then the consequent check — each a span under the request.
kbt::StatusOr<bool> Decomposed(Traced& t, uint32_t k, const Request& req) {
  Scope root(t.tracer, "replay.request", k);
  std::vector<Formula> antecedents;
  Formula consequent = nullptr;
  {
    Scope s(t.tracer, "logic.parse", k, root.id());
    for (const std::string& a : req.antecedents) {
      KBT_ASSIGN_OR_RETURN(Formula f, kbt::ParseSentence(a));
      antecedents.push_back(f);
    }
    KBT_ASSIGN_OR_RETURN(consequent, kbt::ParseSentence(req.consequent));
  }
  Knowledgebase current = t.in.kb;
  for (const Formula& a : antecedents) {
    Scope step(t.tracer, "core.tau_step", k, root.id());
    std::vector<Knowledgebase> parts;
    for (size_t i = 0; i < current.size(); ++i) {
      Scope s(t.tracer, "core.mu", k, step.id());
      KBT_ASSIGN_OR_RETURN(Knowledgebase mu, kbt::Mu(a, current.World(i)));
      parts.push_back(std::move(mu));
    }
    Scope s(t.tracer, "rel.union", k, step.id());
    KBT_ASSIGN_OR_RETURN(current, Knowledgebase::UnionAll(std::move(parts)));
  }
  Scope s(t.tracer, "eval.check", k, root.id());
  KBT_ASSIGN_OR_RETURN(kbt::Schema needed, kbt::SchemaOf(consequent));
  if (!current.schema().Includes(needed)) {
    KBT_ASSIGN_OR_RETURN(kbt::Schema extended, current.schema().Union(needed));
    KBT_ASSIGN_OR_RETURN(current, current.ExtendTo(extended));
  }
  bool all = true, some = false;
  for (size_t i = 0; i < current.size(); ++i) {
    KBT_ASSIGN_OR_RETURN(bool holds, kbt::Satisfies(current.World(i), consequent));
    all = all && holds;
    some = some || holds;
  }
  return req.necessarily ? all : some;
}

void ReplayLayer(Traced& t) {
  Budgeted(t.sample.size(), t.budget_ms, 8, [&](size_t k) {
    kbt::StatusOr<bool> holds =
        Decomposed(t, static_cast<uint32_t>(k), t.in.reads[t.sample[k]]);
    t.Count(holds.status(), "decomposed replay");
    if (holds.ok()) t.Agree(k, *holds, "decomposed replay");
  });
  // Coverage: the replayed layers' time against Session::Query's, over the
  // requests both measured.
  std::map<uint32_t, double> query = t.tracer.PerRequest("serve.query");
  double layers = 0, whole = 0;
  for (const char* name : {"logic.parse", "core.mu", "rel.union", "eval.check"}) {
    for (const auto& [k, us] : t.tracer.PerRequest(name)) {
      if (query.count(k)) layers += us;
    }
  }
  for (const auto& [k, us] : t.tracer.PerRequest("replay.request")) {
    if (query.count(k)) whole += query[k];
  }
  t.r.per_layer.Set("trace.coverage", Ratio(layers, whole), "ratio");
  t.r.per_layer.Set("logic.parse_us", Median(t.tracer.Durations("logic.parse")), "us");
}

/// Grounding, Tseitin encoding and solver forks for the sample's distinct
/// antecedents over the first world's active domain.
void GroundLayer(Traced& t) {
  std::vector<std::string> texts;
  std::set<std::string> seen;
  for (uint32_t i : t.sample) {
    for (const std::string& a : t.in.reads[i].antecedents) {
      if (seen.insert(a).second) texts.push_back(a);
    }
  }
  kbt::Database world = t.in.kb.World(0);
  std::vector<double> nodes, fork_us;
  Budgeted(texts.size(), t.budget_ms, 1, [&](size_t i) {
    kbt::StatusOr<Formula> f = kbt::ParseSentence(texts[i]);
    if (!f.ok()) return t.Count(f.status(), "parse");
    std::vector<kbt::Value> domain = kbt::ActiveDomain(world, *f);
    int g = t.tracer.Begin("logic.ground", static_cast<uint32_t>(i));
    kbt::StatusOr<kbt::Grounding> grounding = kbt::GroundSentence(*f, domain);
    t.tracer.End(g);
    if (!grounding.ok()) return t.Count(grounding.status(), "GroundSentence");
    nodes.push_back(static_cast<double>(grounding->circuit.size()));
    kbt::sat::Solver solver;
    {
      Scope s(t.tracer, "sat.encode", static_cast<uint32_t>(i));
      kbt::sat::TseitinEncoder encoder(&grounding->circuit, &solver);
      encoder.Assert(grounding->root);
    }
    kbt::sat::Solver::Frozen frozen;
    kbt::sat::Solver fork;
    int s = t.tracer.Begin("sat.fork", static_cast<uint32_t>(i));
    solver.Freeze(&frozen);
    for (size_t w = 0; w < t.in.kb.size(); ++w) fork.InitFromFrozen(frozen);
    t.tracer.End(s);
    fork_us.push_back(t.tracer.Us(s) / t.in.kb.size());
  });
  t.r.per_layer.Set("logic.ground_us", Median(t.tracer.Durations("logic.ground")), "us");
  t.r.per_layer.Set("logic.ground_nodes", Median(nodes), "count");
  t.r.per_layer.Set("sat.encode_us", Median(t.tracer.Durations("sat.encode")), "us");
  t.r.per_layer.Set("sat.fork_us", Median(fork_us), "us");
}

// ---------------------------------------------------------------------------
// core τ, exec, rel, datalog: the write stream's sentences over the kb.

void TauLayer(Traced& t) {
  std::vector<Formula> sentences;
  std::set<std::string> seen;
  for (const std::string& w : t.in.writes) {
    if (sentences.size() == 4 || !seen.insert(w).second) continue;
    kbt::StatusOr<Formula> f = kbt::ParseSentence(SentenceOf(w));
    if (!f.ok()) return t.Count(f.status(), "parse write");
    sentences.push_back(*f);
  }
  kbt::exec::ThreadPool pool(4);
  kbt::TauOptions serial;
  kbt::TauOptions wide;
  wide.threads = 4;
  wide.pool = &pool;
  double minimal = 0, candidates = 0, solves = 0, conflicts = 0, decisions = 0,
         worlds = 0, gh = 0, gm = 0, ch = 0, cm = 0, t1_ms = 0, t4_ms = 0,
         bytes_per_world = 0;
  for (size_t s = 0; s < sentences.size(); ++s) {
    kbt::TauStats stats;
    kbt::StatusOr<Knowledgebase> narrow = kbt::Tau(sentences[s], t.in.kb, serial, &stats);
    t.Count(narrow.status(), "Tau t1");
    kbt::StatusOr<Knowledgebase> parallel = kbt::Tau(sentences[s], t.in.kb, wide);
    t.Count(parallel.status(), "Tau t4");
    if (!narrow.ok() || !parallel.ok()) return;
    if (!(*narrow == *parallel)) t.r.Fail("Tau at 4 threads differs from 1 thread");
    minimal += stats.mu.minimal_models;
    candidates += stats.mu.candidates_examined;
    solves += stats.mu.sat_solve_calls;
    conflicts += stats.mu.sat_conflicts;
    decisions += stats.mu.sat_decisions;
    worlds += stats.input_databases;
    gh += stats.ground_cache_hits;
    gm += stats.ground_cache_misses;
    ch += stats.cnf_cache_hits;
    cm += stats.cnf_cache_misses;
    if (!narrow->empty()) bytes_per_world += Ratio(narrow->ApproxHeapBytes(), narrow->size());
    // Timed repeats: the median call at each width.
    auto timed = [&](const char* name, const kbt::TauOptions& options) {
      std::vector<double> ms;
      Budgeted(64, t.budget_ms / (2 * sentences.size()), 3, [&](size_t) {
        Scope span(t.tracer, name, static_cast<uint32_t>(s));
        kbt::Tau(sentences[s], t.in.kb, options);
      });
      for (double us : t.tracer.Durations(name)) ms.push_back(us / 1000.0);
      return ms;
    };
    std::string t1_name = "core.tau_t1." + std::to_string(s);
    std::string t4_name = "exec.tau_t4." + std::to_string(s);
    t1_ms += Median(timed(t1_name.c_str(), serial));
    t4_ms += Median(timed(t4_name.c_str(), wide));
  }
  const double n = static_cast<double>(sentences.size());
  t.r.per_layer.Set("core.tau_ms", t1_ms / n, "ms");
  t.r.per_layer.Set("core.minimal_per_candidate", Ratio(minimal, candidates), "ratio");
  t.r.per_layer.Set("sat.solves_per_world", Ratio(solves, worlds), "count");
  t.r.per_layer.Set("sat.conflicts_per_world", Ratio(conflicts, worlds), "count");
  t.r.per_layer.Set("sat.decisions_per_world", Ratio(decisions, worlds), "count");
  t.r.per_layer.Set("exec.tau_speedup_t4", Ratio(t1_ms, t4_ms), "ratio");
  t.r.per_layer.Set("exec.ground_cache_hit_ratio", Ratio(gh, gh + gm), "ratio");
  t.r.per_layer.Set("exec.cnf_cache_hit_ratio", Ratio(ch, ch + cm), "ratio");
  t.r.per_layer.Set("rel.bytes_per_world", bytes_per_world / n, "B");

  std::vector<double> dispatch;
  Budgeted(1u << 20, t.budget_ms / 4, 1, [&](size_t) {
    Clock::time_point t0 = Clock::now();
    kbt::Status s = pool.ParallelFor(1024, [](size_t, size_t) {});
    dispatch.push_back(MsSince(t0) * 1000.0);
    if (!s.ok()) t.r.Fail("ParallelFor: " + s.ToString());
  });
  t.r.per_layer.Set("exec.parallel_for_us", Median(dispatch), "us");

  // The merge step alone: UnionAll over precomputed per-world μ results.
  std::vector<Knowledgebase> parts;
  for (size_t i = 0; i < t.in.kb.size(); ++i) {
    kbt::StatusOr<Knowledgebase> mu = kbt::Mu(sentences[0], t.in.kb.World(i));
    if (!mu.ok()) return t.Count(mu.status(), "Mu");
    parts.push_back(std::move(*mu));
  }
  std::vector<double> union_ms;
  Budgeted(64, t.budget_ms / 2, 3, [&](size_t i) {
    std::vector<Knowledgebase> copy = parts;
    Scope s(t.tracer, "rel.union_all", static_cast<uint32_t>(i));
    t.Count(Knowledgebase::UnionAll(std::move(copy)).status(), "UnionAll");
  });
  for (double us : t.tracer.Durations("rel.union_all")) union_ms.push_back(us / 1000.0);
  t.r.per_layer.Set("rel.union_ms", Median(union_ms), "ms");

  kbt::StatusOr<Formula> horn = kbt::ParseSentence(t.in.horn);
  if (!horn.ok()) return t.Count(horn.status(), "parse horn");
  kbt::MuOptions datalog;
  datalog.strategy = kbt::MuStrategy::kDatalog;
  Budgeted(1u << 20, t.budget_ms / 2, 8, [&](size_t i) {
    kbt::Database world = t.in.kb.World(i % t.in.kb.size());
    Scope s(t.tracer, "datalog.mu", static_cast<uint32_t>(i));
    t.Count(kbt::Mu(*horn, world, datalog).status(), "Mu kDatalog");
  });
  t.r.per_layer.Set("datalog.mu_us", Median(t.tracer.Durations("datalog.mu")), "us");
}

// ---------------------------------------------------------------------------
// store and serve's durable write path.

void StoreLayer(Traced& t) {
  kbt::store::Env* env = kbt::store::Env::Default();
  const std::string wal_dir = t.Dir("wal");
  if (!env->CreateDir(wal_dir).ok()) return t.r.Fail("cannot create " + wal_dir);
  auto file = env->NewAppendableFile(wal_dir + "/wal-0");
  if (!file.ok()) return t.Count(file.status(), "open wal");
  auto writer = kbt::store::WalWriter::Create(std::move(*file), 0, 0);
  if (!writer.ok()) return t.Count(writer.status(), "WalWriter");
  Budgeted(256, t.budget_ms, 8, [&](size_t i) {
    kbt::store::WalRecord record{kbt::store::WalRecordKind::kTransform,
                                 t.in.writes[i % t.in.writes.size()]};
    {
      Scope s(t.tracer, "store.wal_append", static_cast<uint32_t>(i));
      t.Count((*writer)->Append(record), "WalWriter::Append");
    }
    Scope s(t.tracer, "store.fsync", static_cast<uint32_t>(i));
    t.Count((*writer)->Sync(), "WalWriter::Sync");
  });
  t.Count((*writer)->Close(), "WalWriter::Close");
  t.r.per_layer.Set("store.wal_append_us", Median(t.tracer.Durations("store.wal_append")), "us");
  t.r.per_layer.Set("store.fsync_us", Median(t.tracer.Durations("store.fsync")), "us");

  std::vector<double> ckpt_ms;
  for (uint32_t i = 0; i < 3; ++i) {
    Scope s(t.tracer, "store.checkpoint", i);
    t.Count(kbt::store::WriteCheckpoint(env, wal_dir, wal_dir + "/checkpoint-0",
                                        t.in.kb, 0),
            "WriteCheckpoint");
  }
  for (double us : t.tracer.Durations("store.checkpoint")) ckpt_ms.push_back(us / 1000.0);
  t.r.per_layer.Set("store.checkpoint_ms", Median(ckpt_ms), "ms");

  // Durable applies through serve::Server, then recovery of what they wrote.
  const std::string dir = t.Dir("apply");
  auto server = kbt::serve::Server::OpenDurable(dir, t.in.kb);
  if (!server.ok()) return t.Count(server.status(), "OpenDurable");
  const uint64_t bytes_before = TreeBytes(dir);
  size_t commits = Budgeted(512, t.budget_ms, 4, [&](size_t i) {
    Scope s(t.tracer, "serve.apply", static_cast<uint32_t>(i));
    t.Count((*server)->Apply(t.in.writes[i % t.in.writes.size()]).status(),
            "Server::Apply");
  });
  Knowledgebase served = (*server)->CurrentSnapshot()->kb;
  server->reset();
  t.r.per_layer.Set("serve.apply_us", Median(t.tracer.Durations("serve.apply")), "us");
  t.r.per_layer.Set("store.wal_bytes_per_commit",
                  Ratio(static_cast<double>(TreeBytes(dir) - bytes_before), commits), "B");
  kbt::Engine engine;
  int s = t.tracer.Begin("store.recover", 0);
  auto recovered = kbt::store::RecoverStore(env, dir, engine);
  t.tracer.End(s);
  if (!recovered.ok()) return t.Count(recovered.status(), "RecoverStore");
  if (recovered->lsn != commits || !(recovered->kb == served)) {
    t.r.Fail("recovered store differs from the served state");
  }
  t.r.per_layer.Set("store.replay_us_per_record", Ratio(t.tracer.Us(s), commits), "us");
}

// ---------------------------------------------------------------------------
// repl: an in-process primary and follower over loopback TCP.

/// Applies of the write stream on one connection to a primary with a live
/// follower; returns the p50 in ms and raises `max_lag` to the largest
/// primary-minus-follower version gap seen every 100 ms.
double ReplicatedApplyP50Ms(Traced& t, bool semi_sync, double* max_lag) {
  const std::string suffix = semi_sync ? "semi" : "async";
  auto server = kbt::serve::Server::OpenDurable(t.Dir(("repl-p-" + suffix).c_str()), t.in.kb);
  if (!server.ok()) {
    t.Count(server.status(), "OpenDurable");
    return 0.0;
  }
  kbt::repl::PrimaryOptions popts;
  popts.semi_sync = semi_sync;
  popts.semi_sync_timeout_ms = 10'000;
  auto primary = kbt::repl::Primary::Attach(server->get(), popts);
  if (!primary.ok()) {
    t.Count(primary.status(), "Primary::Attach");
    return 0.0;
  }
  kbt::net::NetServerOptions nopts;
  nopts.repl = primary->get();
  kbt::net::NetServer net(server->get(), nopts);
  kbt::Status started = net.Start();
  if (!started.ok()) {
    t.Count(started, "NetServer::Start");
    return 0.0;
  }
  const uint16_t port = net.port();
  kbt::repl::FollowerOptions fopts;
  fopts.dir = t.Dir(("repl-f-" + suffix).c_str());
  fopts.initial = t.in.kb;
  fopts.connect = [port] { return kbt::net::DialTcp("127.0.0.1", port); };
  auto opened = kbt::repl::Follower::Open(std::move(fopts));
  double p50 = 0.0;
  if (!opened.ok() || !(*opened)->Start().ok()) {
    t.r.Fail("follower did not start");
  } else {
    std::unique_ptr<kbt::repl::Follower> follower = std::move(*opened);
    kbt::net::ClientOptions copts;
    copts.max_attempts = 1;
    kbt::net::Client client = kbt::net::Client::Dial("127.0.0.1", port, copts);
    const std::string name = "repl.apply_" + suffix;
    Clock::time_point last_sample = Clock::now();
    Budgeted(512, t.budget_ms, 4, [&](size_t i) {
      {
        Scope s(t.tracer, name, static_cast<uint32_t>(i));
        t.Count(client.Apply(t.in.writes[i % t.in.writes.size()]).status(),
                "replicated apply");
      }
      if (MsSince(last_sample) >= 100.0) {
        last_sample = Clock::now();
        double lag = static_cast<double>((*server)->stats().snapshot_version) -
                     static_cast<double>(follower->applied_lsn());
        *max_lag = std::max(*max_lag, lag);
      }
    });
    client.Disconnect();
    p50 = Median(t.tracer.Durations(name)) / 1000.0;
    follower->Stop();
  }
  t.Count(net.Shutdown(), "NetServer::Shutdown");
  return p50;
}

void ReplLayer(Traced& t) {
  double max_lag = 0;
  double semi = ReplicatedApplyP50Ms(t, true, &max_lag);
  double async = ReplicatedApplyP50Ms(t, false, &max_lag);
  t.r.per_layer.Set("repl.ack_us", (semi - async) * 1000.0, "us");
  t.r.per_layer.Set("repl.lag_versions_max", max_lag, "count");
}

}  // namespace

RunResult RunTraced(const RunOptions& o) {
  RunResult r = RunTimed(o);
  if (r.inputs_json.empty()) return r;  // No input store to replay.
  Inputs in = MakeInputs(o.workload, o.seed);
  Traced t(o, in, r);
  // Eighteen-odd stages share at most five seconds.
  t.budget_ms = std::min(o.seconds, 5.0) * 1000.0 / 18;
  std::mt19937_64 rng(o.seed ^ 0x7472616365ull);
  std::uniform_int_distribution<uint32_t> pick(0, static_cast<uint32_t>(in.reads.size() - 1));
  for (size_t i = 0; i < SpecOf(o.workload).trace_sample; ++i) t.sample.push_back(pick(rng));
  t.answers.assign(t.sample.size(), -1);

  NetLayer(t);
  CodecLayer(t);
  ServeLayer(t);
  ChainLayer(t);
  ReplayLayer(t);
  GroundLayer(t);
  TauLayer(t);
  StoreLayer(t);
  ReplLayer(t);
  if (r.per_layer.Has("net.read_rtt_us") && r.per_layer.Has("serve.query_us")) {
    r.per_layer.Set("net.wire_us",
                  r.per_layer.Get("net.read_rtt_us") - r.per_layer.Get("serve.query_us"), "us");
  }
  if (!t.tracer.WriteChrome(o.out_dir + "/trace-" + o.workload + ".json")) {
    r.Fail("cannot write the trace file");
  }
  return r;
}

}  // namespace kbtbench
