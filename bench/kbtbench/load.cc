#include "load.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>

#include "report.h"

namespace kbtbench {

struct LoadGen::Conn {
  Conn(uint16_t port, int id)
      : client(kbt::net::Client::Dial("127.0.0.1", port, Options())), id(id) {}

  static kbt::net::ClientOptions Options() {
    kbt::net::ClientOptions options;
    options.max_attempts = 1;
    return options;
  }

  kbt::net::Client client;
  int id;
  uint64_t reads = 0;
  std::vector<Acked> acked;
  std::vector<Observed> observed;
};

namespace {

constexpr size_t kObservedPerConn = 64;
constexpr uint64_t kObserveEvery = 16;

}  // namespace

std::vector<Timed> PhaseResult::All() const {
  std::vector<Timed> all = reads;
  all.insert(all.end(), applies.begin(), applies.end());
  return all;
}

std::vector<double> Latencies(const std::vector<Timed>& samples) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const Timed& s : samples) ms.push_back(s.ms);
  return ms;
}

double WindowedP99(std::vector<Timed> samples, size_t window) {
  if (samples.size() < 2 * window) return Percentile(Latencies(samples), 0.99);
  std::sort(samples.begin(), samples.end(),
            [](const Timed& a, const Timed& b) { return a.due_s < b.due_s; });
  std::vector<double> p99s;
  const size_t windows = samples.size() / window;
  for (size_t w = 0; w < windows; ++w) {
    // The last window takes the remainder.
    auto begin = samples.begin() + w * window;
    auto end = w + 1 == windows ? samples.end() : begin + window;
    p99s.push_back(Percentile(Latencies({begin, end}), 0.99));
  }
  return Median(p99s);
}

void PhaseResult::Merge(const PhaseResult& other) {
  reads.insert(reads.end(), other.reads.begin(), other.reads.end());
  applies.insert(applies.end(), other.applies.begin(), other.applies.end());
  lag_ms.insert(lag_ms.end(), other.lag_ms.begin(), other.lag_ms.end());
  scheduled += other.scheduled;
  attempted += other.attempted;
  failed += other.failed;
  rejected += other.rejected;
  unsent += other.unsent;
}

LoadGen::LoadGen(const Inputs& inputs, uint16_t port)
    : inputs_(inputs),
      port_(port),
      answers_(new std::atomic<int>[inputs.reads.size()]) {
  for (size_t i = 0; i < inputs.reads.size(); ++i) answers_[i] = -1;
}

LoadGen::~LoadGen() = default;

kbt::Status LoadGen::Connect() {
  conns_.clear();
  for (int c = 0; c < kConnections; ++c) {
    conns_.push_back(std::make_unique<Conn>(port_, c));
    KBT_RETURN_IF_ERROR(conns_.back()->client.Ping());
  }
  return kbt::Status::OK();
}

void LoadGen::Disconnect() {
  for (auto& conn : conns_) conn->client.Disconnect();
}

bool LoadGen::Send(Conn& conn, bool apply, uint32_t index, PhaseResult* out,
                   std::chrono::steady_clock::time_point latency_from,
                   double due_s) {
  ++out->attempted;
  kbt::Status error;
  if (apply) {
    uint64_t seq = next_write_.fetch_add(1);
    kbt::StatusOr<uint64_t> version =
        conn.client.Apply(inputs_.writes[seq % inputs_.writes.size()]);
    if (version.ok()) {
      out->applies.push_back({due_s, MsSince(latency_from)});
      conn.acked.push_back({conn.id, *version, seq});
      return true;
    }
    error = version.status();
  } else {
    const Request& r = inputs_.reads[index];
    kbt::StatusOr<kbt::net::ClientReadResult> result =
        conn.client.Read(r.antecedents, r.consequent, r.necessarily);
    if (result.ok()) {
      out->reads.push_back({due_s, MsSince(latency_from)});
      int expected = -1;
      int holds = result->holds ? 1 : 0;
      if (!answers_[index].compare_exchange_strong(expected, holds) &&
          expected != holds) {
        answer_conflict_ = true;
      }
      if (conn.reads++ % kObserveEvery == 0 &&
          conn.observed.size() < kObservedPerConn) {
        conn.observed.push_back({index, result->snapshot_version, result->holds});
      }
      return true;
    }
    error = result.status();
  }
  ++out->failed;
  if (error.code() == kbt::StatusCode::kUnavailable) ++out->rejected;
  if (out->failed == 1) {
    std::fprintf(stderr, "kbtbench: conn %d: %s\n", conn.id,
                 error.ToString().c_str());
  }
  return false;
}

void LoadGen::RunConn(int c, const Phase& phase, PhaseResult* out) {
  // The default 50 µs timer slack would dominate a sub-100 µs read.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  Conn& conn = *conns_[c];
  const uint32_t pool = static_cast<uint32_t>(inputs_.reads.size());
  auto offset_s = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - phase.start).count();
  };
  if (phase.mode == Mode::kWarmup) {
    for (int i = 0; i < phase.warmup; ++i) {
      bool apply = c == 0 && phase.apply_first && i == 0;
      Clock::time_point now = Clock::now();
      Send(conn, apply, static_cast<uint32_t>(c + i * kConnections) % pool, out,
           now, offset_s(now));
    }
    return;
  }
  std::mt19937_64 rng(inputs_.seed * 0x9E3779B97F4A7C15ull ^
                      (phase.salt << 8) ^ static_cast<uint64_t>(c));
  std::bernoulli_distribution is_apply(phase.write_frac);
  std::uniform_int_distribution<uint32_t> pick(0, pool - 1);
  const auto end = phase.start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(phase.seconds));
  if (phase.mode == Mode::kClosed) {
    std::this_thread::sleep_until(phase.start);
    while (Clock::now() < end) {
      bool apply = is_apply(rng);
      Clock::time_point now = Clock::now();
      Send(conn, apply, pick(rng), out, now, offset_s(now));
    }
    return;
  }
  std::exponential_distribution<double> gap(phase.rate / kConnections);
  double t = 0.0;
  while (true) {
    t += gap(rng);
    if (t >= phase.seconds) break;
    bool apply = is_apply(rng);
    uint32_t index = pick(rng);
    ++out->scheduled;
    auto due = phase.start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(t));
    auto now = Clock::now();
    if (now >= end) {
      ++out->unsent;
      continue;
    }
    if (due > now) {
      std::this_thread::sleep_until(due);
      out->lag_ms.push_back(MsSince(due));
    }
    Send(conn, apply, index, out, due, t);
  }
}

PhaseResult LoadGen::RunAll(Phase phase) {
  phase.start = Clock::now() + std::chrono::milliseconds(2);
  std::vector<PhaseResult> parts(kConnections);
  std::vector<std::thread> threads;
  for (int c = 1; c < kConnections; ++c) {
    threads.emplace_back([this, c, &phase, &parts] { RunConn(c, phase, &parts[c]); });
  }
  RunConn(0, phase, &parts[0]);
  for (std::thread& t : threads) t.join();
  PhaseResult all;
  for (const PhaseResult& p : parts) all.Merge(p);
  all.seconds = MsSince(phase.start) / 1000.0;
  return all;
}

PhaseResult LoadGen::Warmup(int per_conn, bool apply_first) {
  Phase phase;
  phase.mode = Mode::kWarmup;
  phase.warmup = per_conn;
  phase.apply_first = apply_first;
  return RunAll(phase);
}

PhaseResult LoadGen::Open(double rate, double seconds, double write_frac,
                          uint64_t salt) {
  Phase phase;
  phase.mode = Mode::kOpen;
  phase.rate = rate;
  phase.seconds = seconds;
  phase.write_frac = write_frac;
  phase.salt = salt;
  return RunAll(phase);
}

PhaseResult LoadGen::Closed(double seconds, double write_frac, uint64_t salt) {
  Phase phase;
  phase.mode = Mode::kClosed;
  phase.seconds = seconds;
  phase.write_frac = write_frac;
  phase.salt = salt;
  return RunAll(phase);
}

std::vector<Acked> LoadGen::acked() const {
  std::vector<Acked> all;
  for (const auto& conn : conns_) {
    all.insert(all.end(), conn->acked.begin(), conn->acked.end());
  }
  return all;
}

std::vector<Observed> LoadGen::observed() const {
  std::vector<Observed> all;
  for (const auto& conn : conns_) {
    all.insert(all.end(), conn->observed.begin(), conn->observed.end());
  }
  return all;
}

std::vector<int> LoadGen::answers() const {
  std::vector<int> out(inputs_.reads.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = answers_[i].load();
  return out;
}

}  // namespace kbtbench
