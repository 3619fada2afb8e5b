/// \file
/// Client reconnection after a mid-session broken pipe — the EnsureConnected
/// path. The scenario the fault matrix doesn't isolate: a client with a
/// WARM, previously-successful connection whose peer silently goes away
/// between calls (server restart, LB idle-kill). Contracts under test:
///
///   * reads transparently redial and retry: the caller sees the correct
///     answer, never a transport error for a survivable break;
///   * an apply whose request bytes never left the broken socket is retried
///     (provably not executed); one whose reply was lost after the request
///     left is NOT silently re-sent — the failure surfaces maybe_executed;
///   * the server's commit count never exceeds observed successes plus
///     surfaced ambiguities (no invisible double-execution);
///   * last_attempts() always describes the call just made.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "net/transport.h"
#include "serve/server.h"

namespace kbt::net {
namespace {

Knowledgebase SmallKb() {
  return *MakeSingletonKb({{"P", 1}}, {{"P", {{"a"}}}});
}

/// A server whose factory hands out pipe connections and keeps every server
/// end, so the test can sever the live connection under the client's feet.
class ReconnectHarness {
 public:
  ReconnectHarness() : server_(SmallKb()), net_(&server_, NetServerOptions()) {}

  ~ReconnectHarness() {
    SeverAll();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  Client MakeClient(size_t max_attempts = 4) {
    ClientOptions options;
    options.sleep_on_backoff = false;
    options.max_attempts = max_attempts;
    return Client([this] { return Factory(); }, options);
  }

  /// Closes every server end: the client's cached connection breaks as if
  /// the peer vanished.
  void SeverAll() {
    for (auto& t : server_ends_) t->Shutdown();
  }

  /// Makes the NEXT connection's server end drop the connection right after
  /// reading one request — request consumed, reply never sent.
  void DropReplyOnNextConnection() { drop_reply_next_ = true; }

  /// Makes the next dial fail outright (connection refused) — the one
  /// failure mode that PROVES the request never left.
  void RefuseNextConnect() { refuse_next_connect_ = true; }

  size_t connections_made() const { return connections_made_; }
  serve::Server& server() { return server_; }

 private:
  StatusOr<std::unique_ptr<Transport>> Factory() {
    if (refuse_next_connect_) {
      refuse_next_connect_ = false;
      return Status::Unavailable("injected: connection refused");
    }
    ++connections_made_;
    auto [client_end, server_end] = MakePipePair();
    std::shared_ptr<Transport> shared;
    if (drop_reply_next_) {
      drop_reply_next_ = false;
      auto fault = std::make_shared<FaultTransport>(std::move(server_end));
      fault->FailWriteAt(0, NetFaultKind::kDropConnection);
      shared = std::move(fault);
    } else {
      shared = std::move(server_end);
    }
    server_ends_.push_back(shared);
    threads_.emplace_back([this, shared] { net_.ServeConnection(*shared); });
    return std::unique_ptr<Transport>(std::move(client_end));
  }

  serve::Server server_;
  NetServer net_;
  bool drop_reply_next_ = false;
  bool refuse_next_connect_ = false;
  size_t connections_made_ = 0;
  std::vector<std::shared_ptr<Transport>> server_ends_;
  std::vector<std::thread> threads_;
};

TEST(NetReconnectTest, ReadsRedialAndRetryAfterBrokenPipe) {
  ReconnectHarness h;
  Client client = h.MakeClient();

  auto warm = client.Read({}, "P(a)");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->holds);
  ASSERT_EQ(h.connections_made(), 1u);

  // The peer goes away between calls. The next read must succeed anyway —
  // EnsureConnected redials inside the retry loop, invisibly to the caller.
  h.SeverAll();
  auto after = client.Read({}, "P(b)");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->holds);
  EXPECT_EQ(h.connections_made(), 2u);
  EXPECT_GE(client.last_attempts(), 2u);  // The broken attempt was consumed.

  // Repeatedly: every severed connection heals the same way.
  for (int round = 0; round < 3; ++round) {
    h.SeverAll();
    auto r = client.Read({}, "P(a)");
    ASSERT_TRUE(r.ok()) << "round " << round << ": " << r.status().ToString();
    EXPECT_TRUE(r->holds);
  }
  EXPECT_EQ(h.connections_made(), 5u);
}

TEST(NetReconnectTest, UnsentApplyIsRetriedAfterBrokenPipe) {
  ReconnectHarness h;
  Client client = h.MakeClient();
  ASSERT_TRUE(client.Ping().ok());

  // The peer is gone and the first redial is refused. A connect failure is
  // the one case where the request PROVABLY never left, so the client may —
  // and does — keep retrying until a clean connection commits it once.
  // (A failed WriteAll, by contrast, is conservatively ambiguous: bytes may
  // have reached the kernel buffer before the error.)
  h.SeverAll();
  client.Disconnect();
  h.RefuseNextConnect();
  auto version = client.Apply("tau{P(b)}");
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(*version, 1u);
  EXPECT_FALSE(client.maybe_executed());
  EXPECT_GE(client.last_attempts(), 2u);
  EXPECT_EQ(h.server().stats().commits, 1u);  // Exactly once.
}

TEST(NetReconnectTest, LostReplyApplySurfacesMaybeExecutedNotASilentResend) {
  ReconnectHarness h;
  Client client = h.MakeClient();
  ASSERT_TRUE(client.Ping().ok());

  // Break the warm connection AND poison the redial: the retried request is
  // read by the server, then the connection dies before the reply. The
  // request left the socket — the client must NOT re-send blindly.
  h.DropReplyOnNextConnection();
  h.SeverAll();
  auto version = client.Apply("tau{P(c)}");
  ASSERT_FALSE(version.ok());
  EXPECT_TRUE(client.maybe_executed());

  // The ambiguity was real: the server did execute it. One commit, no
  // double-execution, and the caller was told it may have landed.
  uint64_t commits = h.server().stats().commits;
  EXPECT_LE(commits, 1u);
  auto probe = client.Read({}, "P(c)");
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe->holds, commits == 1);
}

TEST(NetReconnectTest, SeveredConnectionsNeverInflateCommits) {
  ReconnectHarness h;
  Client client = h.MakeClient();

  size_t successes = 0, ambiguous = 0;
  for (int i = 0; i < 6; ++i) {
    if (i % 2 == 0) h.SeverAll();  // Every other apply rides a broken pipe.
    auto version = client.Apply("tau{P(b)}");
    if (version.ok()) {
      ++successes;
    } else if (client.maybe_executed()) {
      ++ambiguous;
    }
  }
  uint64_t commits = h.server().stats().commits;
  EXPECT_GE(commits, successes);
  EXPECT_LE(commits, successes + ambiguous);
}

/// A read that redials after a severed connection; returns its attempts.
size_t RetriedReadAttempts(ReconnectHarness& h, Client& client) {
  h.SeverAll();
  auto read = client.Read({}, "P(a)");
  EXPECT_TRUE(read.ok()) << read.status().ToString();
  return client.last_attempts();
}

TEST(NetReconnectTest, PingReportsItsOwnSingleAttempt) {
  ReconnectHarness h;
  Client client = h.MakeClient();
  ASSERT_TRUE(client.Read({}, "P(a)").ok());
  ASSERT_GE(RetriedReadAttempts(h, client), 2u);
  // Ping is never retried; it must not leave the read's count in place.
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_EQ(client.last_attempts(), 1u);
}

TEST(NetReconnectTest, ReadRefusedBeforeSendingReportsZeroAttempts) {
  ReconnectHarness h;
  Client client = h.MakeClient();
  ASSERT_TRUE(client.Read({}, "P(a)").ok());
  ASSERT_GE(RetriedReadAttempts(h, client), 2u);
  // A chain over the wire cap is refused client-side: no attempt is made.
  std::vector<std::string> too_deep(kMaxChainDepth + 1, "P(b)");
  auto refused = client.Read(too_deep, "P(a)");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client.last_attempts(), 0u);
}

}  // namespace
}  // namespace kbt::net
