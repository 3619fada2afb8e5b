/// \file
/// Concurrency stress for the serving layer, written to run under TSan (the
/// CI tsan job includes this suite): N reader threads issue hypothetical
/// queries through pinned sessions while one writer publishes updates and
/// rotates durable checkpoints. Verified afterwards:
///
///   * every recorded (version, request, answer) triple is bit-identical to a
///     serial recompute on the retained snapshot of that version — reads are
///     consistent with exactly one published state, never a torn mix;
///   * readers made progress while the writer was parked mid-"transformation"
///     holding the write lock — the MVCC non-blocking claim, observed rather
///     than asserted from the design.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/hypothetical.h"
#include "logic/parser.h"
#include "serve/server.h"
#include "store/file.h"
#include "testutil.h"

namespace kbt::serve {
namespace {

Knowledgebase StressKb() {
  return *MakeSingletonKb({{"P", 1}, {"Q", 2}},
                          {{"P", {{"a"}}}, {"Q", {{"a", "b"}}}});
}

/// The fixed read pool. Recurring sentences make the cache bank's sharing the
/// hot path, which is exactly what TSan should be staring at.
std::vector<ReadRequest> StressReadPool() {
  std::vector<ReadRequest> pool;
  auto add = [&pool](std::vector<std::string> ants, std::string cons,
                     Modality m) {
    ReadRequest r;
    r.antecedents = std::move(ants);
    r.consequent = std::move(cons);
    r.modality = m;
    pool.push_back(std::move(r));
  };
  add({}, "P(a)", Modality::kNecessarily);
  add({}, "P(w1)", Modality::kPossibly);
  add({"P(c)"}, "P(c)", Modality::kNecessarily);
  add({"Q(c, c)"}, "P(a) & Q(c, c)", Modality::kPossibly);
  add({"P(b)", "Q(b, b)"}, "Q(b, b)", Modality::kNecessarily);
  return pool;
}

struct RecordedRead {
  uint64_t version = 0;
  size_t request = 0;  ///< Index into the pool.
  bool holds = false;
};

TEST(ServeStressTest, ConcurrentReadersStayConsistentAcrossPublishes) {
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 40;
  constexpr int kWrites = 12;

  Server server(StressKb());
  const std::vector<ReadRequest> pool = StressReadPool();

  // The writer retains every snapshot it publishes (plus v0) so the serial
  // recompute below can rerun any recorded read on its exact state.
  std::mutex snapshots_mu;
  std::map<uint64_t, std::shared_ptr<const Snapshot>> snapshots;
  snapshots[0] = server.CurrentSnapshot();

  std::vector<std::vector<RecordedRead>> recorded(kReaders);

  auto reader = [&](int t) {
    std::unique_ptr<Session> session = server.StartSession();
    std::vector<RecordedRead>& out = recorded[t];
    out.reserve(kReadsPerReader);
    for (int i = 0; i < kReadsPerReader; ++i) {
      size_t which = (t * 7 + i) % pool.size();
      auto result = session->Query(pool[which]);
      ASSERT_TRUE(result.ok()) << result.status().message();
      out.push_back({result->snapshot_version, which, result->holds});
    }
  };

  auto writer = [&] {
    for (int i = 0; i < kWrites; ++i) {
      auto version = server.Apply("tau{P(w" + std::to_string(i % 3) + ")}");
      ASSERT_TRUE(version.ok()) << version.status().message();
      std::lock_guard<std::mutex> lock(snapshots_mu);
      snapshots[*version] = server.CurrentSnapshot();
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer);
  for (int t = 0; t < kReaders; ++t) threads.emplace_back(reader, t);
  for (std::thread& th : threads) th.join();

  // Serial recompute: every recorded read must match the specification oracle
  // on the snapshot of the version it reported.
  size_t total = 0;
  for (const std::vector<RecordedRead>& per_thread : recorded) {
    for (const RecordedRead& r : per_thread) {
      ++total;
      auto it = snapshots.find(r.version);
      ASSERT_NE(it, snapshots.end()) << "read saw unpublished version "
                                     << r.version;
      const ReadRequest& request = pool[r.request];
      std::vector<Formula> antecedents;
      for (const std::string& text : request.antecedents) {
        auto parsed = ParseSentence(text);
        ASSERT_TRUE(parsed.ok());
        antecedents.push_back(*parsed);
      }
      auto consequent = ParseSentence(request.consequent);
      ASSERT_TRUE(consequent.ok());
      auto expected = testutil::OracleHolds(it->second->kb, antecedents,
                                            *consequent, request.modality);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(r.holds, *expected)
          << "version " << r.version << " request " << r.request;
    }
  }
  EXPECT_EQ(total, static_cast<size_t>(kReaders) * kReadsPerReader);
}

/// Readers demonstrably progress while the write lock is held: two writer
/// threads keep the server's serialized Apply section continuously occupied
/// (one of them holds writer_mu_ at essentially every instant, since the τ +
/// publish inside dwarfs the loop gap), and all reads complete while that
/// storm is still running. A read path that took the write lock would
/// serialize behind it and this test would hang rather than finish.
TEST(ServeStressTest, ReadersNeverBlockOnTheWriter) {
  Server server(StressKb());
  const std::vector<ReadRequest> pool = StressReadPool();

  std::atomic<bool> writers_running{true};
  std::atomic<uint64_t> reads_done{0};

  // Two writer threads keep writer_mu_ continuously contended — at any moment
  // one of them holds it (Apply cost dwarfs the gap between calls).
  auto writer = [&](int seed) {
    int i = 0;
    while (writers_running.load()) {
      auto version =
          server.Apply("tau{P(w" + std::to_string((seed + i++) % 3) + ")}");
      ASSERT_TRUE(version.ok());
    }
  };
  std::thread w1(writer, 0), w2(writer, 1);

  // Readers: a fixed number of queries each. If reads took the write lock,
  // they would serialize behind the writer storm and this loop would crawl;
  // with MVCC they only ever load a snapshot pointer.
  constexpr int kReaders = 3;
  constexpr int kReads = 25;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::unique_ptr<Session> session = server.StartSession();
      for (int i = 0; i < kReads; ++i) {
        auto result = session->Query(pool[(t + i) % pool.size()]);
        ASSERT_TRUE(result.ok());
        reads_done.fetch_add(1);
      }
    });
  }
  for (std::thread& r : readers) r.join();

  // All reads finished while the writers were still running (they stop only
  // after this line) — no reader waited for the write side to go idle.
  EXPECT_TRUE(writers_running.load());
  EXPECT_EQ(reads_done.load(), static_cast<uint64_t>(kReaders) * kReads);
  writers_running.store(false);
  w1.join();
  w2.join();
}

/// Durable mode under the same pressure: the writer also rotates checkpoints,
/// which swaps WAL files while readers run. Readers never touch the store, so
/// this exercises snapshot lifetime against store GC.
TEST(ServeStressTest, DurableWriterWithCheckpointRotation) {
  std::string dir = ::testing::TempDir() + "kbt_serve_stress_store";
  if (store::Env::Default()->FileExists(dir)) {
    auto names = store::Env::Default()->ListDir(dir);
    if (names.ok()) {
      for (const std::string& n : *names) {
        Status ignored = store::Env::Default()->RemoveFile(dir + "/" + n);
        (void)ignored;
      }
    }
  }
  ServerOptions options;
  options.checkpoint_every = 3;  // Rotate continuously under load.
  auto opened =
      Server::OpenDurable(dir, StressKb(), store::StoreOptions(), options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  Server& server = **opened;
  const std::vector<ReadRequest> pool = StressReadPool();

  std::thread writer([&] {
    for (int i = 0; i < 10; ++i) {
      auto version = server.Apply("tau{P(w" + std::to_string(i % 3) + ")}");
      ASSERT_TRUE(version.ok()) << version.status().message();
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::unique_ptr<Session> session = server.StartSession();
      for (int i = 0; i < 20; ++i) {
        auto result = session->Query(pool[(t + 2 * i) % pool.size()]);
        ASSERT_TRUE(result.ok()) << result.status().message();
      }
    });
  }
  for (std::thread& r : readers) r.join();
  writer.join();

  // The served state equals the store's committed state, post-rotation.
  EXPECT_EQ(server.CurrentSnapshot()->kb, server.store()->kb());
  EXPECT_GE(server.store()->lsn(), 10u);
}

}  // namespace
}  // namespace kbt::serve
