#include "net/server.h"

#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/transport.h"
#include "serve/server.h"
#include "store/fault_env.h"

namespace kbt::net {
namespace {

Knowledgebase SmallKb() {
  return *MakeSingletonKb({{"P", 1}, {"Q", 2}},
                          {{"P", {{"a"}}}, {"Q", {{"a", "b"}}}});
}

/// One serve::Server + as many in-memory connections as the test opens. Each
/// Connect() spawns a thread running the production ServeConnection loop on
/// the server end of a fresh pipe and hands back the client end. Destroying
/// a client end closes the pipe, so the server thread exits and joins.
class PipeHarness {
 public:
  explicit PipeHarness(
      NetServerOptions options = NetServerOptions(),
      serve::ServerOptions serve_options = serve::ServerOptions())
      : PipeHarness(std::make_unique<serve::Server>(SmallKb(), serve_options),
                    options) {}

  PipeHarness(std::unique_ptr<serve::Server> owned,
              NetServerOptions options = NetServerOptions())
      : server_(std::move(owned)), net_(server_.get(), options) {}

  ~PipeHarness() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  /// Opens a connection. With `server_fault` set, the server end is wrapped
  /// in a FaultTransport and a pointer to it returned (owned by the server
  /// thread; valid until that connection closes and the harness is joined).
  std::unique_ptr<Transport> Connect(FaultTransport** server_fault = nullptr) {
    auto [client_end, server_end] = MakePipePair();
    std::shared_ptr<Transport> server_shared;
    if (server_fault != nullptr) {
      auto fault = std::make_shared<FaultTransport>(std::move(server_end));
      *server_fault = fault.get();
      server_shared = std::move(fault);
    } else {
      server_shared = std::move(server_end);
    }
    threads_.emplace_back(
        [this, t = server_shared] { net_.ServeConnection(*t); });
    return client_end;
  }

  Client MakeClient() {
    ClientOptions options;
    options.initial_backoff_ms = 0;  // Deterministic, instant retries.
    return Client(
        [this] { return StatusOr<std::unique_ptr<Transport>>(Connect()); },
        options);
  }

  serve::Server& server() { return *server_; }
  NetServer& net() { return net_; }

 private:
  std::unique_ptr<serve::Server> server_;
  NetServer net_;
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// Protocol basics over the production frame loop

TEST(NetServeTest, PingPong) {
  PipeHarness h;
  Client client = h.MakeClient();
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetServeTest, ReadAndApplyEndToEnd) {
  PipeHarness h;
  Client client = h.MakeClient();

  auto before = client.Read({}, "P(b)");
  ASSERT_TRUE(before.ok()) << before.status().message();
  EXPECT_FALSE(before->holds);
  EXPECT_EQ(before->snapshot_version, 0u);

  auto version = client.Apply("tau{P(b)}");
  ASSERT_TRUE(version.ok()) << version.status().message();
  EXPECT_EQ(*version, 1u);

  auto after = client.Read({}, "P(b)");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->holds);
  EXPECT_EQ(after->snapshot_version, 1u);
}

TEST(NetServeTest, CounterfactualReadOverWire) {
  PipeHarness h;
  Client client = h.MakeClient();
  // Hypothetically insert P(b); the snapshot itself is never modified.
  auto result = client.Read({"P(b)"}, "P(b) & P(a)");
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(result->holds);
  auto unchanged = client.Read({}, "P(b)");
  ASSERT_TRUE(unchanged.ok());
  EXPECT_FALSE(unchanged->holds);
}

TEST(NetServeTest, SemanticErrorKeepsConnectionUsable) {
  PipeHarness h;
  Client client = h.MakeClient();
  auto bad = client.Read({}, "P(a");  // Parse error.
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  EXPECT_EQ(client.last_attempts(), 1u);  // Semantic errors are not retried.
  // Same connection still serves.
  auto good = client.Read({}, "P(a)");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->holds);
}

TEST(NetServeTest, MalformedFrameGetsTypedErrorThenClose) {
  PipeHarness h;
  std::unique_ptr<Transport> raw = h.Connect();
  std::string garbage = "this is not a frame at all, not even close!";
  ASSERT_TRUE(raw->WriteAll(garbage.data(), garbage.size()).ok());
  uint8_t type = 0;
  std::string payload;
  Status reply = ReadFrame(*raw, &type, &payload);
  ASSERT_TRUE(reply.ok()) << reply.ToString();
  EXPECT_EQ(static_cast<FrameType>(type), FrameType::kError);
  auto e = DecodeError(payload);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(StatusFromError(*e).code(), StatusCode::kDataLoss);
  // Then the connection closes.
  Status eof = ReadFrame(*raw, &type, &payload);
  EXPECT_FALSE(eof.ok());
  EXPECT_EQ(h.net().net_stats().malformed_frames, 1u);
}

TEST(NetServeTest, ReplyFrameTypeAtServerIsProtocolViolation) {
  PipeHarness h;
  std::unique_ptr<Transport> raw = h.Connect();
  ASSERT_TRUE(WriteFrame(*raw, static_cast<uint8_t>(FrameType::kReadReply),
                         EncodeReadReply({}), 1)
                  .ok());
  uint8_t type = 0;
  std::string payload;
  Status reply = ReadFrame(*raw, &type, &payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(static_cast<FrameType>(type), FrameType::kError);
  Status eof = ReadFrame(*raw, &type, &payload);
  EXPECT_FALSE(eof.ok());
}

TEST(NetServeTest, DuplicatedRequestFrameExecutesOnce) {
  PipeHarness h;
  std::unique_ptr<Transport> raw = h.Connect();
  // The same apply frame twice (a retransmission-style duplicate): the
  // server must execute it once and send one reply — at-most-once per seq.
  std::string frame = *EncodeFrame(FrameType::kApplyRequest,
                                   EncodeApplyRequest({"tau{P(b)}"}), 5);
  ASSERT_TRUE(raw->WriteAll(frame.data(), frame.size()).ok());
  ASSERT_TRUE(raw->WriteAll(frame.data(), frame.size()).ok());
  // Follow with a ping so a (wrong) second apply reply would be observable.
  ASSERT_TRUE(
      WriteFrame(*raw, static_cast<uint8_t>(FrameType::kPing), "", 6).ok());

  uint8_t type = 0;
  std::string payload;
  uint16_t seq = 0;
  ASSERT_TRUE(ReadFrame(*raw, &type, &payload, &seq).ok());
  EXPECT_EQ(static_cast<FrameType>(type), FrameType::kApplyReply);
  EXPECT_EQ(seq, 5u);
  ASSERT_TRUE(ReadFrame(*raw, &type, &payload, &seq).ok());
  EXPECT_EQ(static_cast<FrameType>(type), FrameType::kPong);
  EXPECT_EQ(seq, 6u);
  EXPECT_EQ(h.server().stats().commits, 1u);
}

TEST(NetServeTest, StatsOverWireReflectServerCounters) {
  PipeHarness h;
  Client client = h.MakeClient();
  ASSERT_TRUE(client.Apply("tau{P(b)}").ok());
  ASSERT_TRUE(client.Read({}, "P(b)").ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  uint64_t commits = 0, reads = 0;
  for (const auto& [name, value] : stats->counters) {
    if (name == "commits") commits = value;
    if (name == "reads") reads = value;
  }
  EXPECT_EQ(commits, 1u);
  EXPECT_GE(reads, 1u);
}

// ---------------------------------------------------------------------------
// Overload control

TEST(NetServeTest, InFlightCapRejectsEarlyWithRetryAfter) {
  NetServerOptions options;
  options.max_in_flight = 1;
  options.retry_after_ms = 123;
  PipeHarness h(options);

  // Connection A's reply write is delayed, so A holds the single in-flight
  // slot (the slot is released only after the reply is written). B's request
  // arriving meanwhile must be rejected early with the retry-after hint —
  // and B's connection stays usable.
  FaultTransport* fault = nullptr;
  std::unique_ptr<Transport> a = h.Connect(&fault);
  fault->FailWriteAt(0, NetFaultKind::kDelay,
                     std::chrono::milliseconds(400));
  WireReadRequest read;
  read.consequent = "P(a)";
  ASSERT_TRUE(WriteFrame(*a, static_cast<uint8_t>(FrameType::kReadRequest),
                         EncodeReadRequest(read), 1)
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::unique_ptr<Transport> b = h.Connect();
  ASSERT_TRUE(WriteFrame(*b, static_cast<uint8_t>(FrameType::kReadRequest),
                         EncodeReadRequest(read), 1)
                  .ok());
  uint8_t type = 0;
  std::string payload;
  ASSERT_TRUE(ReadFrame(*b, &type, &payload).ok());
  ASSERT_EQ(static_cast<FrameType>(type), FrameType::kError);
  auto e = DecodeError(payload);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(StatusFromError(*e).code(), StatusCode::kUnavailable);
  EXPECT_EQ(e->retry_after_ms, 123u);

  // B's connection survived the reject.
  ASSERT_TRUE(
      WriteFrame(*b, static_cast<uint8_t>(FrameType::kPing), "", 2).ok());
  ASSERT_TRUE(ReadFrame(*b, &type, &payload).ok());
  EXPECT_EQ(static_cast<FrameType>(type), FrameType::kPong);

  // A's delayed reply still arrives, and it is correct.
  ASSERT_TRUE(ReadFrame(*a, &type, &payload).ok());
  ASSERT_EQ(static_cast<FrameType>(type), FrameType::kReadReply);
  auto reply = DecodeReadReply(payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->holds);
  EXPECT_GE(h.net().net_stats().requests_rejected, 1u);
  EXPECT_EQ(fault->faults_fired(), 1u);
}

TEST(NetServeTest, ClientBacksOffOnRejectAndSucceeds) {
  NetServerOptions options;
  options.max_in_flight = 1;
  PipeHarness h(options);

  FaultTransport* fault = nullptr;
  std::unique_ptr<Transport> a = h.Connect(&fault);
  fault->FailWriteAt(0, NetFaultKind::kDelay,
                     std::chrono::milliseconds(300));
  WireReadRequest read;
  read.consequent = "P(a)";
  ASSERT_TRUE(WriteFrame(*a, static_cast<uint8_t>(FrameType::kReadRequest),
                         EncodeReadRequest(read), 1)
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The client library sees the typed reject and backs off exponentially
  // until the slot frees up (~300 ms): real sleeps, generous attempt cap.
  ClientOptions copts;
  copts.max_attempts = 20;
  copts.initial_backoff_ms = 25;
  Client client(
      [&h] { return StatusOr<std::unique_ptr<Transport>>(h.Connect()); },
      copts);
  auto result = client.Read({}, "P(a)");
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(result->holds);
  EXPECT_GT(client.last_attempts(), 1u) << "the reject path never fired";

  uint8_t type = 0;
  std::string payload;
  ASSERT_TRUE(ReadFrame(*a, &type, &payload).ok());  // A finishes too.
}

TEST(NetServeTest, DrainingServerRejectsApplies) {
  PipeHarness h;
  std::unique_ptr<Transport> raw = h.Connect();
  // Flip the drain token directly (Shutdown would also join the harness
  // threads; here only the reject path is under test).
  const_cast<CancelToken&>(h.net().drain_token()).Cancel();
  Status write =
      WriteFrame(*raw, static_cast<uint8_t>(FrameType::kApplyRequest),
                 EncodeApplyRequest({"tau{P(b)}"}), 9);
  if (write.ok()) {
    uint8_t type = 0;
    std::string payload;
    Status reply = ReadFrame(*raw, &type, &payload);
    // Either a typed kUnavailable reject, or the frame loop observed the
    // cancelled token first and closed. Never a successful apply.
    if (reply.ok()) {
      ASSERT_EQ(static_cast<FrameType>(type), FrameType::kError);
      auto e = DecodeError(payload);
      ASSERT_TRUE(e.ok());
      EXPECT_EQ(StatusFromError(*e).code(), StatusCode::kUnavailable);
      EXPECT_GT(e->retry_after_ms, 0u);
    }
  }
  EXPECT_EQ(h.server().stats().commits, 0u);
}

// ---------------------------------------------------------------------------
// Live TCP: connection reaping, shutdown agreement, dial timeout hygiene.
// The pipe harness bypasses the accept loop, so these run over real sockets.

int CountOpenFds() {
  int count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;  // Includes ".", "..", and the dirfd itself — constant noise.
}

/// Polls `pred` until true or ~5 s elapse.
template <typename Pred>
bool EventuallyTrue(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

Status PingOnce(Transport& t, uint16_t seq) {
  KBT_RETURN_IF_ERROR(
      WriteFrame(t, static_cast<uint8_t>(FrameType::kPing), "", seq));
  uint8_t type = 0;
  std::string payload;
  KBT_RETURN_IF_ERROR(ReadFrame(t, &type, &payload));
  if (static_cast<FrameType>(type) != FrameType::kPong) {
    return Status::Internal("expected pong");
  }
  return Status::OK();
}

TEST(NetServeTcpTest, ClosedConnectionsReleaseFdsAndThreads) {
  serve::Server server(SmallKb(), serve::ServerOptions());
  NetServer net(&server, NetServerOptions());
  ASSERT_TRUE(net.Start().ok());

  // Warm-up connection so lazy one-time allocations don't skew the baseline.
  {
    auto warm = DialTcp("127.0.0.1", net.port());
    ASSERT_TRUE(warm.ok()) << warm.status().message();
    ASSERT_TRUE(PingOnce(**warm, 1).ok());
  }
  ASSERT_TRUE(EventuallyTrue(
      [&] { return net.net_stats().open_connections == 0; }));
  int baseline = CountOpenFds();
  ASSERT_GT(baseline, 0);

  constexpr int kConnections = 16;
  for (int i = 0; i < kConnections; ++i) {
    auto t = DialTcp("127.0.0.1", net.port());
    ASSERT_TRUE(t.ok()) << t.status().message();
    ASSERT_TRUE(PingOnce(**t, 1).ok());
    // The transport is destroyed here: the peer closes, the worker exits.
  }

  // Every server-side socket closes when its worker exits — NOT at shutdown.
  ASSERT_TRUE(EventuallyTrue(
      [&] { return net.net_stats().open_connections == 0; }));
  EXPECT_LE(CountOpenFds(), baseline + 1)
      << "closed connections are leaking file descriptors";

  // Exited workers are joined by the accept loop, not hoarded until
  // Shutdown: one more connection wakes the loop, whose pre-accept sweep
  // reaps all earlier handles.
  auto wake = DialTcp("127.0.0.1", net.port());
  ASSERT_TRUE(wake.ok());
  ASSERT_TRUE(PingOnce(**wake, 1).ok());
  EXPECT_TRUE(EventuallyTrue([&] {
    return net.net_stats().connections_reaped >=
           static_cast<uint64_t>(kConnections);
  })) << "accept loop never joined finished workers; reaped = "
      << net.net_stats().connections_reaped;

  EXPECT_TRUE(net.Shutdown().ok());
  EXPECT_EQ(net.net_stats().open_connections, 0u);
}

TEST(NetServeTcpTest, ConcurrentShutdownCallersObserveSameStatus) {
  serve::Server server(SmallKb(), serve::ServerOptions());
  NetServer net(&server, NetServerOptions());
  ASSERT_TRUE(net.Start().ok());
  // Both callers must return the same drain result (the store-sync status),
  // whichever of them wins the race to run the drain.
  Status a, b;
  std::thread t1([&] { a = net.Shutdown(); });
  std::thread t2([&] { b = net.Shutdown(); });
  t1.join();
  t2.join();
  EXPECT_TRUE(a.ok()) << a.ToString();
  EXPECT_EQ(a.code(), b.code());
  EXPECT_EQ(a.message(), b.message());
}

TEST(NetServeTcpTest, DialConnectTimeoutDoesNotLeakIntoWrites) {
  serve::Server server(SmallKb(), serve::ServerOptions());
  NetServer net(&server, NetServerOptions());
  ASSERT_TRUE(net.Start().ok());
  // connect_timeout 3 s, write_timeout 0 ("block forever"): after the dial,
  // SO_SNDTIMEO must be cleared, not left at the connect budget.
  auto t = DialTcp("127.0.0.1", net.port(), /*connect_timeout_ms=*/3000,
                   /*read_timeout_ms=*/0, /*write_timeout_ms=*/0);
  ASSERT_TRUE(t.ok()) << t.status().message();
  int fd = static_cast<SocketTransport*>(t->get())->fd();
  struct timeval tv;
  socklen_t len = sizeof(tv);
  ASSERT_EQ(::getsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, &len), 0);
  EXPECT_EQ(tv.tv_sec, 0);
  EXPECT_EQ(tv.tv_usec, 0);
  EXPECT_TRUE(net.Shutdown().ok());
}

// ---------------------------------------------------------------------------
// Durable drain: acknowledged commits survive a crash after Shutdown.

TEST(NetServeDrainTest, AcknowledgedCommitsSurviveCrashAfterDrain) {
  // Every commit is fsynced before its ack, so after a clean Shutdown every
  // acknowledged commit must be recoverable.
  store::FaultInjectionEnv env;
  store::StoreOptions store_options;
  store_options.env = &env;

  uint64_t acked = 0;
  {
    auto server = serve::Server::OpenDurable("db", SmallKb(), store_options);
    ASSERT_TRUE(server.ok()) << server.status().message();
    PipeHarness h(std::move(*server));
    {
      Client client = h.MakeClient();
      for (int i = 0; i < 3; ++i) {
        auto version = client.Apply("tau{P(b)}");
        ASSERT_TRUE(version.ok()) << version.status().message();
        acked = *version;
      }
    }
    Status drained = h.net().Shutdown();
    ASSERT_TRUE(drained.ok()) << drained.ToString();
  }
  // The process dies after the drain; whatever was not fsynced is gone.
  env.Crash();
  env.RecoverFromCrash();

  auto reopened = serve::Server::OpenDurable("db", SmallKb(), store_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ((*reopened)->store()->lsn(), acked);
  auto session = (*reopened)->StartSession();
  auto holds = session->Holds("P(b)");
  ASSERT_TRUE(holds.ok());
  EXPECT_TRUE(holds->holds);
}

TEST(NetServeDrainTest, BrokenStoreFailsTheDrain) {
  store::FaultInjectionEnv env;
  store::StoreOptions store_options;
  store_options.env = &env;
  auto server = serve::Server::OpenDurable("db", SmallKb(), store_options);
  ASSERT_TRUE(server.ok()) << server.status().message();
  PipeHarness h(std::move(*server));
  {
    Client client = h.MakeClient();
    ASSERT_TRUE(client.Apply("tau{P(b)}").ok());
    // The commit fails and so does its self-heal: the store is broken.
    env.Crash();
    EXPECT_FALSE(client.Apply("tau{P(c)}").ok());
  }
  ASSERT_TRUE(h.server().store()->broken());
  Status drained = h.net().Shutdown();
  EXPECT_EQ(drained.code(), StatusCode::kIOError) << drained.ToString();
  // A second caller sees the same verdict.
  EXPECT_EQ(h.net().Shutdown().code(), StatusCode::kIOError);
  env.RecoverFromCrash();
}

}  // namespace
}  // namespace kbt::net
