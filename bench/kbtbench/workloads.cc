#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <thread>

#include "core/kbt.h"
#include "load.h"
#include "net/client.h"
#include "proc.h"
#include "store/checkpoint.h"
#include "store/durable_engine.h"
#include "store/recovery.h"

namespace kbtbench {

namespace {

using kbt::Knowledgebase;

// Measured on seed 1 with `kbtbench calibrate`; see README.md.
constexpr Spec kSpecs[] = {
    {"read_hot", 20000, 2.0, 0.0, 2000},
    {"read_cold", 1000, 20.0, 0.0, 256},
    {"write_repl", 2000, 5.0, 0.25, 2000},
    {"tau_worlds", 0, 0.0, 0.0, 16},
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
constexpr int kWarmupPerConn = 64;
/// Shares of --seconds: load at the nominal rate that is not measured (the
/// first seconds of load run slower while threads settle), the measured
/// nominal phase, and the capacity search — a log-bisection over
/// [nominal, 8 x nominal] in kProbes equal probes.
constexpr double kSettleShare = 0.1;
constexpr double kNominalShare = 0.4;
constexpr int kProbes = 6;
/// Read replies the oracle re-derives on read_cold.
constexpr size_t kColdOracleSample = 256;
constexpr size_t kTauOracleWorlds = 32;

/// Calls `once` (which returns the milliseconds it measured, or a negative
/// number on failure) at least 5 and at most 15 times, stopping once a
/// second has passed; recover_ms is the median of these.
std::vector<double> Repeated(const std::function<double()>& once) {
  std::vector<double> ms;
  Clock::time_point start = Clock::now();
  while (ms.size() < 15 && (ms.size() < 5 || MsSince(start) < 1000.0)) {
    double one = once();
    if (one < 0) break;
    ms.push_back(one);
  }
  return ms;
}

std::string Tool(const RunOptions& o, const char* name) {
  return o.bin_dir + "/" + name;
}

std::vector<std::string> ServerArgs(const Inputs& in, const std::string& dir) {
  std::vector<std::string> args = {"--init", in.decls, "--store", dir,
                                   "--port", "0"};
  if (in.workload == "write_repl") {
    args.insert(args.end(), {"--repl-primary", "--semi-sync"});
  }
  return args;
}

/// One serving set-up: the primary (plus, on write_repl, a replica) and the
/// four warmed connections.
struct Stack {
  Server primary;
  Server replica;
  std::unique_ptr<LoadGen> gen;

  kbt::Status Stop() {
    if (gen != nullptr) gen->Disconnect();
    kbt::Status status;
    if (replica.child != nullptr) status = replica.child->Drain(30.0);
    kbt::Status p = primary.child->Drain(30.0);
    return status.ok() ? p : status;
  }
};

struct Dirs {
  std::string gen, primary, replica, restart, logs;
  explicit Dirs(const RunOptions& o)
      : gen(o.work_dir + "/gen"),
        primary(o.work_dir + "/primary"),
        replica(o.work_dir + "/replica"),
        restart(o.work_dir + "/restart"),
        logs(o.work_dir + "/server.log") {}
};

/// Spawns and warms one stack on a fresh copy of the generated store. The
/// copy is not timed; `setup_ms` covers spawn, recovery and warm-up.
kbt::StatusOr<Stack> StartStack(const RunOptions& o, const Inputs& in,
                                const Dirs& dirs, double* setup_ms,
                                PhaseResult* warm) {
  KBT_RETURN_IF_ERROR(CopyTree(dirs.gen, dirs.primary));
  RemoveTree(dirs.replica);
  Stack stack;
  Clock::time_point start = Clock::now();
  KBT_ASSIGN_OR_RETURN(stack.primary,
                       StartServer(Tool(o, "kbt_server"),
                                   ServerArgs(in, dirs.primary), dirs.logs));
  if (in.workload == "write_repl") {
    KBT_ASSIGN_OR_RETURN(
        stack.replica,
        StartServer(Tool(o, "kbt_server"),
                    {"--replica-of", "127.0.0.1:" + std::to_string(stack.primary.port),
                     "--store", dirs.replica, "--port", "0"},
                    dirs.logs));
  }
  stack.gen = std::make_unique<LoadGen>(in, stack.primary.port);
  KBT_RETURN_IF_ERROR(stack.gen->Connect());
  *warm = stack.gen->Warmup(kWarmupPerConn, in.workload == "write_repl");
  *setup_ms = MsSince(start);
  if (warm->failed > 0) return kbt::Status::Internal("warm-up requests failed");
  return stack;
}

void AddPhase(const PhaseResult& p, RunResult* r) {
  r->attempted += p.attempted;
  r->failed += p.failed;
  r->rejected += p.rejected;
}

/// Read-only workloads: replies never changed between two asks, and every
/// checked request matches the plain oracle on the generated kb.
void CheckReads(const Inputs& in, const LoadGen& gen, RunResult* r) {
  if (!gen.answers_agree()) r->Fail("two replies to one read request differed");
  std::vector<int> answers = gen.answers();
  std::vector<uint32_t> check;
  for (uint32_t i = 0; i < answers.size(); ++i) {
    if (answers[i] >= 0) check.push_back(i);
  }
  if (in.workload == "read_hot" && check.size() != in.reads.size()) {
    r->Fail("not every read_hot request was answered");
  }
  if (check.size() > kColdOracleSample) {
    std::mt19937_64 rng(in.seed);
    std::shuffle(check.begin(), check.end(), rng);
    check.resize(kColdOracleSample);
  }
  for (uint32_t i : check) {
    kbt::StatusOr<bool> want = PlainAnswer(in.kb, in.reads[i]);
    if (!want.ok() || *want != (answers[i] == 1)) {
      r->Fail("read " + std::to_string(i) + " disagrees with the oracle");
      return;
    }
  }
  r->detail.Set("oracle_reads_checked", static_cast<double>(check.size()), "count");
}

/// Replays the acked applies in version order from the generated kb with the
/// plain engine, checking each sampled read against the kb of the version it
/// reports; returns the final kb.
kbt::StatusOr<Knowledgebase> ReplayAcked(const Inputs& in,
                                         const std::vector<Acked>& acked,
                                         std::vector<Observed> observed) {
  std::sort(observed.begin(), observed.end(),
            [](const Observed& a, const Observed& b) { return a.version < b.version; });
  kbt::Engine engine;
  Knowledgebase kb = in.kb;
  size_t next = 0;
  for (uint64_t v = 0; v <= acked.size(); ++v) {
    if (v > 0) {
      const std::string& w = in.writes[acked[v - 1].write_seq % in.writes.size()];
      KBT_ASSIGN_OR_RETURN(kb, engine.Apply(w, kb));
    }
    for (; next < observed.size() && observed[next].version == v; ++next) {
      kbt::StatusOr<bool> want = PlainAnswer(kb, in.reads[observed[next].index]);
      if (!want.ok() || *want != observed[next].holds) {
        return kbt::Status::Internal("a read disagrees with the oracle at version " +
                                     std::to_string(v));
      }
    }
  }
  if (next != observed.size()) {
    return kbt::Status::Internal("a read reported a version never acked");
  }
  return kb;
}

/// write_repl: the acked log is a gap-free version sequence, replaying it
/// reproduces the recovered primary, the replica holds the same bytes, the
/// sampled reads match the kb of the version they report, and both stores
/// pass a deep fsck. The fscks and the two recoveries run while this thread
/// replays the log.
void CheckReplicated(const RunOptions& o, const Inputs& in, const Dirs& dirs,
                     const LoadGen& gen, RunResult* r) {
  std::vector<Acked> acked = gen.acked();
  std::map<int, uint64_t> last;
  for (const Acked& a : acked) {
    if (last.count(a.conn) && a.version <= last[a.conn]) {
      r->Fail("acked versions did not increase on a connection");
      return;
    }
    last[a.conn] = a.version;
  }
  std::sort(acked.begin(), acked.end(),
            [](const Acked& a, const Acked& b) { return a.version < b.version; });
  for (size_t i = 0; i < acked.size(); ++i) {
    if (acked[i].version != i + 1) {
      r->Fail("acked versions are not 1..N");
      return;
    }
  }

  const std::string stores[2] = {dirs.primary, dirs.replica};
  std::unique_ptr<Child> fscks[2];
  std::optional<kbt::StatusOr<kbt::store::RecoveredStore>> recovered[2];
  std::vector<std::thread> recoveries;
  for (int i = 0; i < 2; ++i) {
    auto fsck = Child::Spawn({Tool(o, "kbt_fsck"), "--deep", stores[i]}, dirs.logs);
    if (fsck.ok()) {
      fscks[i] = std::move(*fsck);
    } else {
      r->Fail("kbt_fsck: " + fsck.status().ToString());
    }
    recoveries.emplace_back([&, i] {
      kbt::Engine engine;
      recovered[i] = kbt::store::RecoverStore(kbt::store::Env::Default(), stores[i], engine);
    });
  }
  kbt::StatusOr<Knowledgebase> replayed = ReplayAcked(in, acked, gen.observed());
  for (std::thread& t : recoveries) t.join();
  for (auto& fsck : fscks) {
    std::string out;
    if (fsck != nullptr && fsck->Wait(&out) != 0) {
      r->Fail("kbt_fsck --deep is not clean: " + out);
    }
  }

  if (!replayed.ok()) {
    r->Fail(replayed.status().message());
    return;
  }
  const auto& primary = *recovered[0];
  const auto& replica = *recovered[1];
  if (!primary.ok() || !replica.ok()) {
    r->Fail("a store did not recover");
    return;
  }
  if (primary->lsn != acked.size() || !(primary->kb == *replayed)) {
    r->Fail("recovered primary differs from the replayed acked log");
  }
  if (kbt::store::EncodeCheckpoint(replica->kb, replica->lsn) !=
      kbt::store::EncodeCheckpoint(primary->kb, primary->lsn)) {
    r->Fail("replica state differs from the primary's");
  }
  r->detail.Set("oracle_reads_checked", static_cast<double>(gen.observed().size()),
                "count");
  r->detail.Set("acked_applies", static_cast<double>(acked.size()), "count");
}

/// recover_ms: kbt_server started on `dir` until it prints "listening on",
/// then drained.
std::vector<double> Restarts(const RunOptions& o, const Inputs& in,
                             const std::string& dir, const std::string& logs,
                             RunResult* r) {
  return Repeated([&] {
    Clock::time_point start = Clock::now();
    kbt::StatusOr<Server> s = StartServer(Tool(o, "kbt_server"), ServerArgs(in, dir), logs);
    if (!s.ok()) {
      r->Fail("restart: " + s.status().ToString());
      return -1.0;
    }
    double ms = MsSince(start);
    kbt::Status drained = s->child->Drain(30.0);
    if (!drained.ok()) r->Fail("restart drain: " + drained.ToString());
    return ms;
  });
}

RunResult RunServed(const RunOptions& o, const Inputs& in, const Dirs& dirs) {
  const Spec& spec = SpecOf(in.workload);
  RunResult r;
  const Clock::time_point run_start = Clock::now();
  auto mark = [&](const char* name) {
    r.detail.Set(std::string("wall.") + name, MsSince(run_start) / 1000.0, "s");
  };
  std::vector<double> setups;
  Stack stack;
  for (int i = 0; i < kSetups; ++i) {
    double ms = 0.0;
    PhaseResult warm;
    kbt::StatusOr<Stack> started = StartStack(o, in, dirs, &ms, &warm);
    AddPhase(warm, &r);
    if (!started.ok()) {
      r.Fail("set-up: " + started.status().ToString());
      return r;
    }
    setups.push_back(ms);
    if (i + 1 < kSetups) {
      kbt::Status stopped = started->Stop();
      if (!stopped.ok()) r.Fail("set-up drain: " + stopped.ToString());
    } else {
      stack = std::move(*started);
    }
  }

  mark("setups_done");
  const double wf = spec.write_frac;
  AddPhase(stack.gen->Open(spec.nominal_rps, kSettleShare * o.seconds, wf, 0), &r);
  PhaseResult nominal =
      stack.gen->Open(spec.nominal_rps, kNominalShare * o.seconds, wf, 1);
  AddPhase(nominal, &r);
  // The restarts later recover this copy: the store as the nominal phase
  // left it, so their WAL replay does not depend on how far the capacity
  // search went. The server is idle and every commit was fsynced.
  kbt::Status copied = CopyTree(dirs.primary, dirs.restart);
  if (!copied.ok()) r.Fail("copy for restarts: " + copied.ToString());
  double lo = spec.nominal_rps, hi = 8 * spec.nominal_rps;
  const double probe_s = (1 - kSettleShare - kNominalShare) * o.seconds / kProbes;
  for (int i = 0; i < kProbes; ++i) {
    double rate = std::sqrt(lo * hi);
    PhaseResult probe = stack.gen->Open(rate, probe_s, wf, 2 + i);
    AddPhase(probe, &r);
    const double read_p99 = WindowedP99(probe.reads);
    bool pass = probe.failed == 0 && read_p99 <= spec.slo_ms &&
                probe.unsent < 0.01 * probe.scheduled;
    (pass ? lo : hi) = rate;
    std::string tag = "probe" + std::to_string(i);
    r.detail.Set(tag + "_rps", rate, "1/s");
    r.detail.Set(tag + "_read_p99_ms", read_p99, "ms");
    r.detail.Set(tag + "_unsent", static_cast<double>(probe.unsent), "count");
  }
  const double peak_rss = stack.primary.child->PeakRssMb();

  kbt::net::Client stats_client = kbt::net::Client::Dial("127.0.0.1", stack.primary.port);
  kbt::StatusOr<kbt::net::WireStatsReply> stats = stats_client.Stats();
  stats_client.Disconnect();
  if (stats.ok()) {
    for (const auto& [name, value] : stats->counters) {
      if (name == "bank_hits" || name == "bank_misses" || name == "commits") {
        r.detail.Set("server." + name, static_cast<double>(value), "count");
      }
    }
  }
  kbt::Status stopped = stack.Stop();
  if (!stopped.ok()) r.Fail("drain: " + stopped.ToString());
  mark("load_done");

  std::vector<double> restarts = Restarts(o, in, dirs.restart, dirs.logs, &r);
  mark("restarts_done");

  if (in.workload == "write_repl") {
    CheckReplicated(o, in, dirs, *stack.gen, &r);
  } else {
    CheckReads(in, *stack.gen, &r);
  }
  mark("checks_done");

  r.per_layer.Set("p50_ms", Percentile(Latencies(nominal.All()), 0.5), "ms");
  r.per_layer.Set("p99_ms", WindowedP99(nominal.All()), "ms");
  r.per_layer.Set("capacity_per_s", lo, "1/s");
  r.per_layer.Set("recover_ms", Median(restarts), "ms");
  r.end_to_end.Set("setup_s", Median(setups) / 1000.0, "s");
  r.end_to_end.Set("peak_rss_mb", peak_rss, "MiB");

  r.detail.Set("nominal_rps", spec.nominal_rps, "1/s");
  r.detail.Set("slo_ms", spec.slo_ms, "ms");
  r.detail.Set("reads", static_cast<double>(nominal.reads.size()), "count");
  r.detail.Set("read_p50_ms", Percentile(Latencies(nominal.reads), 0.5), "ms");
  r.detail.Set("read_p99_ms", WindowedP99(nominal.reads), "ms");
  r.detail.Set("plain_p99_ms", Percentile(Latencies(nominal.All()), 0.99), "ms");
  if (wf > 0) {
    r.detail.Set("applies", static_cast<double>(nominal.applies.size()), "count");
    r.detail.Set("apply_p50_ms", Percentile(Latencies(nominal.applies), 0.5), "ms");
    r.detail.Set("apply_p99_ms", Percentile(Latencies(nominal.applies), 0.99), "ms");
  }
  r.detail.Set("gen.lag_p99_ms", Percentile(nominal.lag_ms, 0.99), "ms");
  r.detail.Set("nominal_unsent", static_cast<double>(nominal.unsent), "count");
  return r;
}

/// tau_worlds: the in-process engine over 1024 worlds, one caller thread.
RunResult RunTau(const RunOptions& o, const Inputs& in, const Dirs& dirs) {
  RunResult r;
  std::vector<double> setups;
  Knowledgebase kb;
  kbt::EngineOptions options;
  options.tau_threads = 4;
  std::unique_ptr<kbt::Engine> engine;
  for (int i = 0; i < kSetups; ++i) {
    kbt::Status copied = CopyTree(dirs.gen, dirs.primary);
    if (!copied.ok()) {
      r.Fail(copied.ToString());
      return r;
    }
    Clock::time_point start = Clock::now();
    auto store = kbt::store::DurableEngine::Open(dirs.primary, Knowledgebase());
    if (!store.ok()) {
      r.Fail("recovery: " + store.status().ToString());
      return r;
    }
    kb = (*store)->kb();
    engine = std::make_unique<kbt::Engine>(options);
    for (const std::string& w : in.writes) {
      ++r.attempted;
      if (!engine->Apply(w, kb).ok()) ++r.failed;
    }
    setups.push_back(MsSince(start));
  }

  std::vector<double> rotations;
  uint64_t worlds = 0;
  Clock::time_point start = Clock::now();
  while (MsSince(start) < o.seconds * 1000.0) {
    Clock::time_point t0 = Clock::now();
    for (const std::string& w : in.writes) {
      ++r.attempted;
      if (!engine->Apply(w, kb).ok()) ++r.failed;
      worlds += kb.size();
    }
    rotations.push_back(MsSince(t0));
  }
  const double elapsed_s = MsSince(start) / 1000.0;
  const double peak_rss = PeakRssMb("self");

  // The engine never writes, so the store is still the generated one.
  std::vector<double> recoveries = Restarts(o, in, dirs.primary, dirs.logs, &r);

  // Oracle: width 4 equals width 1, and on a world sample τ equals the
  // union of plain μ over each flat world.
  kbt::Engine serial;
  std::vector<size_t> sample(kb.size());
  for (size_t i = 0; i < sample.size(); ++i) sample[i] = i;
  std::mt19937_64 rng(in.seed);
  std::shuffle(sample.begin(), sample.end(), rng);
  sample.resize(std::min(kTauOracleWorlds, sample.size()));
  std::sort(sample.begin(), sample.end());
  Knowledgebase sub = kb.SelectWorlds(sample);
  for (const std::string& w : in.writes) {
    auto wide = engine->Apply(w, kb);
    auto narrow = serial.Apply(w, kb);
    if (!wide.ok() || !narrow.ok() || !(*wide == *narrow)) {
      r.Fail("width 4 differs from width 1 on " + w);
    }
    kbt::StatusOr<kbt::Formula> sentence = kbt::ParseSentence(SentenceOf(w));
    if (!sentence.ok()) {
      r.Fail("unparsable rotation sentence " + w);
      continue;
    }
    auto tau = kbt::Tau(*sentence, sub);
    std::vector<Knowledgebase> parts;
    for (size_t i = 0; i < sub.size(); ++i) {
      auto mu = kbt::Mu(*sentence, sub.World(i));
      if (mu.ok()) parts.push_back(std::move(*mu));
    }
    auto unioned = Knowledgebase::UnionAll(std::move(parts));
    if (!tau.ok() || !unioned.ok() || !(*tau == *unioned)) {
      r.Fail("tau differs from the union of per-world mu on " + w);
    }
  }

  r.per_layer.Set("p50_ms", Percentile(rotations, 0.5), "ms");
  r.per_layer.Set("p99_ms", Percentile(rotations, 0.99), "ms");
  r.per_layer.Set("capacity_per_s", worlds / elapsed_s, "1/s");
  r.per_layer.Set("recover_ms", Median(recoveries), "ms");
  r.end_to_end.Set("setup_s", Median(setups) / 1000.0, "s");
  r.end_to_end.Set("peak_rss_mb", peak_rss, "MiB");
  r.detail.Set("rotations", static_cast<double>(rotations.size()), "count");
  r.detail.Set("worlds_per_s", worlds / elapsed_s, "1/s");
  return r;
}

}  // namespace

const Spec& SpecOf(const std::string& workload) {
  for (const Spec& s : kSpecs) {
    if (workload == s.name) return s;
  }
  return kSpecs[0];
}

kbt::StatusOr<bool> PlainAnswer(const Knowledgebase& kb, const Request& r) {
  std::vector<kbt::Formula> antecedents;
  for (const std::string& a : r.antecedents) {
    KBT_ASSIGN_OR_RETURN(kbt::Formula f, kbt::ParseSentence(a));
    antecedents.push_back(f);
  }
  KBT_ASSIGN_OR_RETURN(kbt::Formula consequent, kbt::ParseSentence(r.consequent));
  return kbt::NestedCounterfactual(
      kb, antecedents, consequent,
      r.necessarily ? kbt::Modality::kNecessarily : kbt::Modality::kPossibly);
}

kbt::Status WriteStore(const std::string& dir, const Inputs& in) {
  RemoveTree(dir);
  KBT_ASSIGN_OR_RETURN(auto store, kbt::store::DurableEngine::Open(dir, in.kb));
  return store->Sync();
}

std::string InputsJson(const Inputs& in, uint64_t kb_bytes) {
  return "{\"worlds\": " + std::to_string(in.kb.size()) +
         ", \"domain\": " + std::to_string(in.domain) +
         ", \"distinct_requests\": " + std::to_string(in.reads.size()) +
         ", \"write_stream\": " + std::to_string(in.writes.size()) +
         ", \"kb_bytes\": " + std::to_string(kb_bytes) + "}";
}

RunResult RunTimed(const RunOptions& o) {
  Inputs in = MakeInputs(o.workload, o.seed);
  Dirs dirs(o);
  RunResult r;
  kbt::Status written = WriteStore(dirs.gen, in);
  if (!written.ok()) {
    r.Fail("writing the input store: " + written.ToString());
    return r;
  }
  std::string inputs = InputsJson(in, TreeBytes(dirs.gen));
  r = in.workload == "tau_worlds" ? RunTau(o, in, dirs) : RunServed(o, in, dirs);
  r.inputs_json = inputs;
  return r;
}

int Calibrate(const RunOptions& o) {
  Inputs in = MakeInputs(o.workload, o.seed);
  Dirs dirs(o);
  kbt::Status written = WriteStore(dirs.gen, in);
  if (!written.ok()) {
    std::fprintf(stderr, "kbtbench: %s\n", written.ToString().c_str());
    return 1;
  }
  const Spec& spec = SpecOf(in.workload);
  if (in.workload == "tau_worlds") {
    for (size_t threads : {1, 4}) {
      kbt::EngineOptions options;
      options.tau_threads = threads;
      kbt::Engine engine(options);
      for (const std::string& w : in.writes) {
        engine.Apply(w, in.kb);
        Clock::time_point t0 = Clock::now();
        int n = 0;
        while (MsSince(t0) < 1000.0) {
          engine.Apply(w, in.kb);
          ++n;
        }
        std::printf("t%zu %8.3f ms  %s\n", threads, MsSince(t0) / n, w.c_str());
      }
    }
    return 0;
  }
  double ms = 0.0;
  PhaseResult warm;
  kbt::StatusOr<Stack> stack = StartStack(o, in, dirs, &ms, &warm);
  if (!stack.ok()) {
    std::fprintf(stderr, "kbtbench: %s\n", stack.status().ToString().c_str());
    return 1;
  }
  PhaseResult closed = stack->gen->Closed(o.seconds, spec.write_frac, 100);
  std::printf("%s closed loop: %.1f req/s  p50 %.4f ms  p99 %.4f ms  failed %llu\n",
              in.workload.c_str(), closed.attempted / closed.seconds,
              Percentile(Latencies(closed.All()), 0.5),
              Percentile(Latencies(closed.All()), 0.99),
              static_cast<unsigned long long>(closed.failed));
  PhaseResult open = stack->gen->Open(spec.nominal_rps, o.seconds, spec.write_frac, 101);
  std::printf("%s open loop at %.0f req/s: p50 %.4f ms  p99 %.4f ms  read p50 %.4f  "
              "read p99 %.4f  unsent %llu  lag p99 %.4f ms\n",
              in.workload.c_str(), spec.nominal_rps,
              Percentile(Latencies(open.All()), 0.5), WindowedP99(open.All()),
              Percentile(Latencies(open.reads), 0.5), WindowedP99(open.reads),
              static_cast<unsigned long long>(open.unsent),
              Percentile(open.lag_ms, 0.99));
  kbt::Status stopped = stack->Stop();
  return stopped.ok() ? 0 : 1;
}

}  // namespace kbtbench
