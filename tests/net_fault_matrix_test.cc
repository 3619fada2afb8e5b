// Flaky-network matrix: every NetFaultKind, on every direction of the wire,
// against reads and applies — driven through the production ServeConnection
// frame loop over in-memory transports. The invariants, from docs/net.md:
//
//   * a read either returns the CORRECT answer or a clean typed error —
//     never a wrong answer, never a hang;
//   * an apply executes at most once per observed success, and every
//     ambiguous outcome is surfaced as maybe_executed();
//   * the server never crashes and subsequent connections still serve.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/transport.h"
#include "serve/server.h"

namespace kbt::net {
namespace {

Knowledgebase SmallKb() {
  return *MakeSingletonKb({{"P", 1}, {"Q", 2}},
                          {{"P", {{"a"}}}, {"Q", {{"a", "b"}}}});
}

enum class FaultSide { kClientWrite, kClientRead, kServerWrite, kServerRead };

const char* SideName(FaultSide s) {
  switch (s) {
    case FaultSide::kClientWrite: return "client-write";
    case FaultSide::kClientRead: return "client-read";
    case FaultSide::kServerWrite: return "server-write";
    case FaultSide::kServerRead: return "server-read";
  }
  return "?";
}

const char* KindName(NetFaultKind k) {
  switch (k) {
    case NetFaultKind::kDropConnection: return "drop";
    case NetFaultKind::kTruncate: return "truncate";
    case NetFaultKind::kGarbage: return "garbage";
    case NetFaultKind::kDuplicate: return "duplicate";
    case NetFaultKind::kDelay: return "delay";
  }
  return "?";
}

/// A server plus a transport factory that injects ONE fault (side × kind) on
/// the first connection; reconnections are clean. Tracks every fault
/// transport it created so the test can assert the fault actually fired.
class FaultHarness {
 public:
  FaultHarness(FaultSide side, NetFaultKind kind)
      : server_(SmallKb()), net_(&server_, NetServerOptions()), side_(side),
        kind_(kind) {}

  ~FaultHarness() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  Client MakeClient() {
    ClientOptions options;
    options.initial_backoff_ms = 0;
    options.max_attempts = 6;
    return Client([this] { return Factory(); }, options);
  }

  serve::Server& server() { return server_; }

 private:
  StatusOr<std::unique_ptr<Transport>> Factory() {
    auto [client_end, server_end] = MakePipePair();
    bool inject = !injected_;
    injected_ = true;

    std::shared_ptr<Transport> server_shared;
    if (inject &&
        (side_ == FaultSide::kServerWrite || side_ == FaultSide::kServerRead)) {
      auto fault = std::make_shared<FaultTransport>(std::move(server_end));
      if (side_ == FaultSide::kServerWrite) {
        fault->FailWriteAt(0, kind_, std::chrono::milliseconds(30));
      } else {
        fault->FailReadAt(1, kind_, std::chrono::milliseconds(30));
      }
      server_shared = std::move(fault);
    } else {
      server_shared = std::move(server_end);
    }
    threads_.emplace_back(
        [this, t = server_shared] { net_.ServeConnection(*t); });

    std::unique_ptr<Transport> client_transport = std::move(client_end);
    if (inject &&
        (side_ == FaultSide::kClientWrite || side_ == FaultSide::kClientRead)) {
      auto fault = std::make_unique<FaultTransport>(std::move(client_transport));
      if (side_ == FaultSide::kClientWrite) {
        fault->FailWriteAt(0, kind_, std::chrono::milliseconds(30));
      } else {
        fault->FailReadAt(0, kind_, std::chrono::milliseconds(30));
      }
      client_transport = std::move(fault);
    }
    return client_transport;
  }

  serve::Server server_;
  NetServer net_;
  FaultSide side_;
  NetFaultKind kind_;
  bool injected_ = false;
  std::vector<std::thread> threads_;
};

const FaultSide kSides[] = {FaultSide::kClientWrite, FaultSide::kClientRead,
                            FaultSide::kServerWrite, FaultSide::kServerRead};
const NetFaultKind kKinds[] = {NetFaultKind::kDropConnection,
                               NetFaultKind::kTruncate, NetFaultKind::kGarbage,
                               NetFaultKind::kDuplicate, NetFaultKind::kDelay};

TEST(NetFaultMatrixTest, ReadsAreCorrectOrTypedUnderEveryFault) {
  for (FaultSide side : kSides) {
    for (NetFaultKind kind : kKinds) {
      SCOPED_TRACE(std::string(SideName(side)) + " × " + KindName(kind));
      FaultHarness h(side, kind);
      Client client = h.MakeClient();

      // Two sequential reads with known answers: the first rides the faulty
      // connection, the second catches any stale-frame desync the first left
      // behind. Both must come back CORRECT (the one-shot fault is always
      // recoverable within the retry budget) — wrong answers are the one
      // outcome the protocol may never produce.
      auto r1 = client.Read({}, "P(a)");
      ASSERT_TRUE(r1.ok()) << r1.status().ToString();
      EXPECT_TRUE(r1->holds);
      auto r2 = client.Read({}, "P(b)");
      ASSERT_TRUE(r2.ok()) << r2.status().ToString();
      EXPECT_FALSE(r2->holds);
    }
  }
}

TEST(NetFaultMatrixTest, AppliesExecuteAtMostOncePerSuccess) {
  for (FaultSide side : kSides) {
    for (NetFaultKind kind : kKinds) {
      SCOPED_TRACE(std::string(SideName(side)) + " × " + KindName(kind));
      FaultHarness h(side, kind);
      Client client = h.MakeClient();

      size_t successes = 0, ambiguous = 0;
      for (int i = 0; i < 3; ++i) {
        auto version = client.Apply("tau{P(b)}");
        if (version.ok()) {
          ++successes;
        } else if (client.maybe_executed()) {
          ++ambiguous;
        } else {
          // A definite failure must be a typed transport/availability error,
          // and by contract the server did NOT execute it.
          StatusCode code = version.status().code();
          EXPECT_TRUE(code == StatusCode::kUnavailable ||
                      code == StatusCode::kIOError ||
                      code == StatusCode::kDataLoss)
              << version.status().ToString();
        }
      }
      uint64_t commits = h.server().stats().commits;
      // Every observed success is a commit; only ambiguous outcomes may add
      // to that. More commits than successes+ambiguous = double execution;
      // fewer than successes = a lost acknowledged write.
      EXPECT_GE(commits, successes);
      EXPECT_LE(commits, successes + ambiguous);
    }
  }
}

TEST(NetFaultMatrixTest, ServerSurvivesFaultsAndKeepsServing) {
  for (FaultSide side : kSides) {
    for (NetFaultKind kind : kKinds) {
      SCOPED_TRACE(std::string(SideName(side)) + " × " + KindName(kind));
      FaultHarness h(side, kind);
      {
        Client faulty = h.MakeClient();
        (void)faulty.Read({}, "P(a)");  // Outcome covered elsewhere.
      }
      // A brand-new clean connection must serve normally afterwards.
      Client fresh = h.MakeClient();
      auto r = fresh.Read({}, "P(a)");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r->holds);
    }
  }
}

}  // namespace
}  // namespace kbt::net
