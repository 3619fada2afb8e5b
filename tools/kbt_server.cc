// kbt_server — the network front end: serves a knowledgebase over the kbt
// wire protocol (src/net/) until SIGTERM/SIGINT, then drains gracefully.
//
// Usage:
//   kbt_server --init "R/2 S/1" [--store DIR] [--port N] [flags]
//   kbt_server --load "[ R/1: {(a)} ]" [--store DIR] [--port N] [flags]
//
// Flags:
//   --init DECLS            empty singleton kb over NAME/ARITY declarations
//   --load LITERAL          kb from a knowledgebase literal
//   --store DIR             durable mode: WAL + checkpoints in DIR
//   --host H --port N       bind address (port 0 = pick a free port)
//   --max-connections N     reject-early bound on concurrent connections
//   --max-in-flight N       reject-early bound on concurrently executing reads
//   --read-timeout-ms MS    per-connection idle timeout
//   --sat-budget N          per-read SAT conflict budget (0 = unlimited)
//   --cache-bytes N         per-sentence cache byte budget (0 = unbounded)
//
// Replication (see docs/replication.md):
//   --repl-primary          serve the replication protocol (requires --store)
//   --semi-sync             writes ack only after >=1 follower has them
//   --semi-sync-timeout-ms  bound on that wait (then kDeadlineExceeded,
//                           commit durable locally either way)
//   --node-id NAME          this node's identity (subscription key / fencing)
//   --replica-of HOST:PORT  run as a read replica of that primary instead:
//                           pull + apply its WAL, serve reads, refuse writes
//                           with a redirect to the primary
//
// The bound port is printed as "listening on HOST:PORT" once ready — the
// smoke test scrapes it. SIGTERM and SIGINT request a graceful drain: stop
// accepting, finish or cancel in-flight requests, exit 0. The drain does not
// fsync: every acknowledged commit was fsynced before its reply. A broken
// store makes the drain, and the exit, fail. A replica also exits (nonzero)
// if it diverges from its primary, or falls below its primary's GC horizon
// — restart it to re-seed.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/interner.h"
#include "net/server.h"
#include "net/transport.h"
#include "rel/io.h"
#include "repl/follower.h"
#include "repl/primary.h"
#include "serve/server.h"

namespace {

kbt::net::NetServer* g_server = nullptr;

void HandleSignal(int) {
  // Async-signal-safe: one atomic store; the drain runs on the main thread.
  if (g_server != nullptr) g_server->RequestShutdown();
}

kbt::StatusOr<kbt::Knowledgebase> InitialKb(const std::string& init,
                                            const std::string& load) {
  if (!load.empty()) return kbt::ParseKnowledgebase(load);
  std::vector<kbt::RelationDecl> decls;
  std::istringstream in{init};
  std::string token;
  while (in >> token) {
    size_t slash = token.rfind('/');
    if (slash == std::string::npos || slash + 1 == token.size()) {
      return kbt::Status::InvalidArgument("expected NAME/ARITY, got '" + token +
                                          "'");
    }
    size_t arity = 0;
    try {
      arity = std::stoul(token.substr(slash + 1));
    } catch (...) {
      return kbt::Status::InvalidArgument("bad arity in '" + token + "'");
    }
    decls.push_back({kbt::Name(token.substr(0, slash)), arity});
  }
  KBT_ASSIGN_OR_RETURN(kbt::Schema schema,
                       kbt::Schema::FromDecls(std::move(decls)));
  return kbt::Knowledgebase::Singleton(kbt::Database(schema));
}

int Fail(const std::string& message) {
  std::cerr << "kbt_server: " << message << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string init, load, store_dir, node_id, replica_of;
  bool repl_primary = false;
  kbt::net::NetServerOptions net_options;
  kbt::serve::ServerOptions serve_options;
  kbt::repl::PrimaryOptions primary_options;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--init" && (v = next())) {
      init = v;
    } else if (arg == "--load" && (v = next())) {
      load = v;
    } else if (arg == "--store" && (v = next())) {
      store_dir = v;
    } else if (arg == "--host" && (v = next())) {
      net_options.host = v;
    } else if (arg == "--port" && (v = next())) {
      net_options.port = static_cast<uint16_t>(std::atoi(v));
    } else if (arg == "--max-connections" && (v = next())) {
      net_options.max_connections = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-in-flight" && (v = next())) {
      net_options.max_in_flight = std::strtoull(v, nullptr, 10);
    } else if (arg == "--read-timeout-ms" && (v = next())) {
      net_options.read_timeout_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--sat-budget" && (v = next())) {
      serve_options.read_sat_conflict_budget = std::strtoull(v, nullptr, 10);
    } else if (arg == "--cache-bytes" && (v = next())) {
      serve_options.cache_entry_byte_budget = std::strtoull(v, nullptr, 10);
    } else if (arg == "--repl-primary") {
      repl_primary = true;
    } else if (arg == "--semi-sync") {
      primary_options.semi_sync = true;
    } else if (arg == "--semi-sync-timeout-ms" && (v = next())) {
      primary_options.semi_sync_timeout_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--node-id" && (v = next())) {
      node_id = v;
    } else if (arg == "--replica-of" && (v = next())) {
      replica_of = v;
    } else {
      return Fail("unknown or incomplete flag: " + arg);
    }
  }
  if (!replica_of.empty() && repl_primary) {
    return Fail("--replica-of and --repl-primary are mutually exclusive");
  }
  if (replica_of.empty() && init.empty() && load.empty()) {
    return Fail("one of --init or --load is required");
  }

  std::unique_ptr<kbt::serve::Server> server;
  std::unique_ptr<kbt::repl::Primary> primary;
  std::unique_ptr<kbt::repl::Follower> follower;
  kbt::serve::Server* front = nullptr;

  if (!replica_of.empty()) {
    // Replica: our serve::Server lives inside the Follower, seeded and kept
    // current by the pull loop; the net front serves its reads.
    if (store_dir.empty()) return Fail("--replica-of requires --store DIR");
    size_t colon = replica_of.rfind(':');
    if (colon == std::string::npos || colon + 1 == replica_of.size()) {
      return Fail("--replica-of wants HOST:PORT, got '" + replica_of + "'");
    }
    std::string host = replica_of.substr(0, colon);
    int port = std::atoi(replica_of.c_str() + colon + 1);
    if (port <= 0 || port > 65535) {
      return Fail("bad port in '" + replica_of + "'");
    }
    kbt::repl::FollowerOptions follower_options;
    if (!node_id.empty()) follower_options.node_id = node_id;
    follower_options.dir = store_dir;
    follower_options.serve = serve_options;
    follower_options.redirect_hint = replica_of;
    follower_options.connect = [host, port]() {
      return kbt::net::DialTcp(host, static_cast<uint16_t>(port));
    };
    kbt::StatusOr<std::unique_ptr<kbt::repl::Follower>> opened =
        kbt::repl::Follower::Open(std::move(follower_options));
    if (!opened.ok()) return Fail("replica: " + opened.status().ToString());
    follower = std::move(*opened);
    front = follower->server();
  } else {
    kbt::StatusOr<kbt::Knowledgebase> kb = InitialKb(init, load);
    if (!kb.ok()) return Fail(kb.status().ToString());
    if (!store_dir.empty()) {
      kbt::StatusOr<std::unique_ptr<kbt::serve::Server>> durable =
          kbt::serve::Server::OpenDurable(store_dir, *kb,
                                          kbt::store::StoreOptions(),
                                          serve_options);
      if (!durable.ok()) return Fail(durable.status().ToString());
      server = std::move(*durable);
    } else {
      server =
          std::make_unique<kbt::serve::Server>(std::move(*kb), serve_options);
    }
    front = server.get();
    if (repl_primary) {
      if (store_dir.empty()) return Fail("--repl-primary requires --store");
      if (!node_id.empty()) primary_options.node_id = node_id;
      kbt::StatusOr<std::unique_ptr<kbt::repl::Primary>> attached =
          kbt::repl::Primary::Attach(server.get(), primary_options);
      if (!attached.ok()) return Fail(attached.status().ToString());
      primary = std::move(*attached);
      net_options.repl = primary.get();
    }
  }

  kbt::net::NetServer net(front, net_options);
  kbt::Status started = net.Start();
  if (!started.ok()) return Fail(started.ToString());

  g_server = &net;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  std::cout << "listening on " << net_options.host << ":" << net.port() << "\n"
            << std::flush;
  if (primary != nullptr) {
    std::cout << "role: primary, epoch " << primary->epoch()
              << (primary_options.semi_sync ? ", semi-sync" : "") << "\n"
              << std::flush;
  }

  // Replica: start pulling only after the net front is up, and watch for
  // divergence — a lost follower can't serve honest reads, so shut down.
  std::atomic<bool> watch_stop{false};
  std::thread watchdog;
  if (follower != nullptr) {
    kbt::Status pulling = follower->Start();
    if (!pulling.ok()) return Fail("replica: " + pulling.ToString());
    std::cout << "role: replica of " << replica_of << ", epoch "
              << follower->epoch() << ", lsn " << follower->applied_lsn()
              << "\n"
              << std::flush;
    watchdog = std::thread([&net, &watch_stop, f = follower.get()]() {
      while (!watch_stop.load(std::memory_order_acquire)) {
        if (f->state() == kbt::repl::FollowerState::kLost) {
          net.RequestShutdown();
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }

  kbt::Status drained = net.WaitForShutdown();
  g_server = nullptr;
  watch_stop.store(true, std::memory_order_release);
  if (watchdog.joinable()) watchdog.join();
  bool lost = false;
  if (follower != nullptr) {
    follower->Stop();
    lost = follower->state() == kbt::repl::FollowerState::kLost;
  }
  if (!drained.ok()) return Fail("drain: " + drained.ToString());
  if (lost) {
    return Fail("replica lost its primary (diverged, or fell below its GC "
                "horizon); restart it to re-seed");
  }
  std::cout << "drained cleanly\n";
  return 0;
}
