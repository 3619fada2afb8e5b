// kbt_shell — interactive / scripted front end to serve::Server.
//
// A thin line-oriented shell over the serving layer: it owns one server, one
// session, and translates commands into Apply / Query calls. Scripted mode
// (`--script FILE`) is strict — any command error or failed `expect` exits
// nonzero — which is what the CTest smoke test relies on.
//
// Commands (one per line; '#' starts a comment):
//   init R1/2 R2/1 ...      in-memory server over an empty singleton kb
//   load [ R/1: {(a)} ]     in-memory server from a knowledgebase literal
//   open DIR                durable server in DIR (current state seeds a fresh
//                           store; an existing store's recovered state wins)
//   insert SENTENCE         apply tau{SENTENCE}
//   apply PIPELINE          apply a pipeline, e.g. tau{P(a)} >> glb
//   query SENTENCE          modal query: necessarily
//   possibly SENTENCE       modal query: possibly
//   if A1; A2 => B          nested counterfactual (necessity)
//   if? A1; A2 => B         nested counterfactual (possibility)
//   expect true|false       assert the last query/if result
//   expect-error CMD...     assert that CMD fails (its error becomes success)
//   show                    print the current snapshot's knowledgebase
//   worlds                  world count + snapshot version
//   checkpoint | sync       durable-mode barriers (no-ops in memory)
//   stats                   server counters
//   replica DIR HOST:PORT   become a read replica of that primary (store in
//                           DIR); reads serve locally, writes are refused
//   repl-wait LSN [MS]      block until the replica has applied LSN
//   promote                 failover: stop pulling, open for writes
//   repl-stats              replication counters
//   help | quit

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/interner.h"
#include "net/transport.h"
#include "rel/io.h"
#include "repl/follower.h"
#include "serve/server.h"

namespace {

using kbt::Knowledgebase;
using kbt::Status;
using kbt::StatusOr;

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

struct Shell {
  std::unique_ptr<kbt::serve::Server> server;
  // In replica mode the server lives inside the follower instead; `srv()` is
  // the one place that knows which.
  std::unique_ptr<kbt::repl::Follower> follower;
  std::unique_ptr<kbt::serve::Session> session;
  std::optional<bool> last_result;
  bool quit = false;

  kbt::serve::Server* srv() {
    return follower != nullptr ? follower->server() : server.get();
  }

  Status RequireServer() {
    if (srv() == nullptr)
      return Status::InvalidArgument("no server — run `init` or `load` first");
    return Status::OK();
  }

  void Adopt(std::unique_ptr<kbt::serve::Server> next) {
    session.reset();
    if (follower != nullptr) {
      follower->Stop();
      follower.reset();
    }
    server = std::move(next);
    session = server->StartSession();
  }

  Status Init(std::string_view args) {
    std::vector<kbt::RelationDecl> decls;
    std::istringstream in{std::string(args)};
    std::string token;
    while (in >> token) {
      size_t slash = token.rfind('/');
      if (slash == std::string::npos || slash + 1 == token.size()) {
        return Status::InvalidArgument("expected NAME/ARITY, got '" + token + "'");
      }
      size_t arity = 0;
      try {
        arity = std::stoul(token.substr(slash + 1));
      } catch (...) {
        return Status::InvalidArgument("bad arity in '" + token + "'");
      }
      decls.push_back({kbt::Name(token.substr(0, slash)), arity});
    }
    KBT_ASSIGN_OR_RETURN(kbt::Schema schema,
                         kbt::Schema::FromDecls(std::move(decls)));
    Adopt(std::make_unique<kbt::serve::Server>(
        Knowledgebase::Singleton(kbt::Database(schema))));
    std::cout << "ok: empty singleton kb over " << schema.size()
              << " relation(s)\n";
    return Status::OK();
  }

  Status Load(std::string_view args) {
    KBT_ASSIGN_OR_RETURN(Knowledgebase kb, kbt::ParseKnowledgebase(args));
    Adopt(std::make_unique<kbt::serve::Server>(std::move(kb)));
    std::cout << "ok: " << srv()->CurrentSnapshot()->kb.size() << " world(s)\n";
    return Status::OK();
  }

  Status OpenStore(std::string_view args) {
    std::string dir{Trim(args)};
    if (dir.empty()) return Status::InvalidArgument("open needs a directory");
    Knowledgebase seed =
        srv() != nullptr ? srv()->CurrentSnapshot()->kb : Knowledgebase();
    KBT_ASSIGN_OR_RETURN(std::unique_ptr<kbt::serve::Server> durable,
                         kbt::serve::Server::OpenDurable(dir, seed));
    Adopt(std::move(durable));
    std::cout << "ok: durable store at " << dir << ", lsn "
              << srv()->store()->lsn() << ", "
              << srv()->CurrentSnapshot()->kb.size() << " world(s)\n";
    return Status::OK();
  }

  Status Write(std::string_view expression) {
    KBT_RETURN_IF_ERROR(RequireServer());
    KBT_ASSIGN_OR_RETURN(uint64_t version, session->Apply(expression));
    std::cout << "ok: version " << version << ", "
              << srv()->CurrentSnapshot()->kb.size() << " world(s)\n";
    return Status::OK();
  }

  Status Query(std::string_view sentence, kbt::Modality modality) {
    KBT_RETURN_IF_ERROR(RequireServer());
    KBT_ASSIGN_OR_RETURN(kbt::serve::ReadResult result,
                         session->Holds(sentence, modality));
    last_result = result.holds;
    std::cout << (result.holds ? "true" : "false") << "  (v"
              << result.snapshot_version << ")\n";
    return Status::OK();
  }

  Status If(std::string_view args, kbt::Modality modality) {
    KBT_RETURN_IF_ERROR(RequireServer());
    size_t arrow = args.find("=>");
    if (arrow == std::string_view::npos)
      return Status::InvalidArgument("if needs `ANTECEDENTS => CONSEQUENT`");
    kbt::serve::ReadRequest request;
    std::string_view chain = args.substr(0, arrow);
    while (!chain.empty()) {
      size_t semi = chain.find(';');
      std::string_view part = Trim(chain.substr(0, semi));
      if (!part.empty()) request.antecedents.emplace_back(part);
      if (semi == std::string_view::npos) break;
      chain.remove_prefix(semi + 1);
    }
    request.consequent = std::string(Trim(args.substr(arrow + 2)));
    request.modality = modality;
    KBT_ASSIGN_OR_RETURN(kbt::serve::ReadResult result, session->Query(request));
    last_result = result.holds;
    std::cout << (result.holds ? "true" : "false") << "  (v"
              << result.snapshot_version << ")\n";
    return Status::OK();
  }

  Status Expect(std::string_view args) {
    std::string_view want = Trim(args);
    if (want != "true" && want != "false")
      return Status::InvalidArgument("expect true|false");
    if (!last_result.has_value())
      return Status::InvalidArgument("no query result to check");
    bool expected = want == "true";
    if (*last_result != expected) {
      return Status::Internal("expectation failed: last result was " +
                              std::string(*last_result ? "true" : "false"));
    }
    std::cout << "ok\n";
    return Status::OK();
  }

  Status Stats() {
    KBT_RETURN_IF_ERROR(RequireServer());
    kbt::serve::Server::ServerStats s = srv()->stats();
    std::cout << "version=" << s.snapshot_version << " commits=" << s.commits
              << " reads=" << s.reads
              << " checkpoint_failures=" << s.checkpoint_failures
              << " bank_hits=" << s.bank_hits
              << " bank_misses=" << s.bank_misses
              << " bank_budget_evictions=" << s.bank_budget_evictions
              << " deadlines_exceeded=" << s.deadlines_exceeded
              << " sat_interrupt_checks=" << s.sat_interrupt_checks
              << " sat_budget_trips=" << s.sat_budget_trips;
    if (srv()->store() != nullptr)
      std::cout << " lsn=" << srv()->store()->lsn();
    std::cout << "\n";
    return Status::OK();
  }

  Status Replica(std::string_view args) {
    std::istringstream in{std::string(args)};
    std::string dir, addr;
    in >> dir >> addr;
    size_t colon = addr.rfind(':');
    if (dir.empty() || addr.empty() || colon == std::string::npos ||
        colon + 1 == addr.size()) {
      return Status::InvalidArgument("replica needs `DIR HOST:PORT`");
    }
    std::string host = addr.substr(0, colon);
    int port = std::atoi(addr.c_str() + colon + 1);
    if (port <= 0 || port > 65535)
      return Status::InvalidArgument("bad port in '" + addr + "'");

    kbt::repl::FollowerOptions options;
    options.dir = dir;
    options.redirect_hint = addr;
    options.connect = [host, port]() {
      return kbt::net::DialTcp(host, static_cast<uint16_t>(port));
    };
    // The shell's session pins server(); a mid-life re-seed must not swap it.
    options.reseed_after_open = false;
    KBT_ASSIGN_OR_RETURN(std::unique_ptr<kbt::repl::Follower> next,
                         kbt::repl::Follower::Open(std::move(options)));
    session.reset();
    server.reset();
    if (follower != nullptr) follower->Stop();
    follower = std::move(next);
    KBT_RETURN_IF_ERROR(follower->Start());
    session = follower->server()->StartSession();
    std::cout << "ok: replica of " << addr << ", epoch " << follower->epoch()
              << ", lsn " << follower->applied_lsn() << "\n";
    return Status::OK();
  }

  Status ReplWait(std::string_view args) {
    if (follower == nullptr)
      return Status::InvalidArgument("repl-wait needs a replica (`replica`)");
    std::istringstream in{std::string(args)};
    uint64_t lsn = 0;
    uint64_t timeout_ms = 10'000;
    if (!(in >> lsn))
      return Status::InvalidArgument("repl-wait needs `LSN [TIMEOUT_MS]`");
    in >> timeout_ms;
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (follower->applied_lsn() < lsn) {
      if (follower->state() == kbt::repl::FollowerState::kLost)
        return Status::DataLoss("replica diverged while waiting");
      if (std::chrono::steady_clock::now() >= deadline) {
        return Status::DeadlineExceeded(
            "replica stuck at lsn " + std::to_string(follower->applied_lsn()) +
            " waiting for " + std::to_string(lsn));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::cout << "ok: applied lsn " << follower->applied_lsn() << "\n";
    return Status::OK();
  }

  Status Promote() {
    if (follower == nullptr)
      return Status::InvalidArgument("promote needs a replica (`replica`)");
    KBT_ASSIGN_OR_RETURN(uint64_t epoch, follower->Promote());
    // Same server object, now writable; a fresh session is still tidier.
    session = follower->server()->StartSession();
    std::cout << "ok: promoted, epoch " << epoch << ", lsn "
              << follower->applied_lsn() << "\n";
    return Status::OK();
  }

  Status ReplStats() {
    if (follower == nullptr)
      return Status::InvalidArgument("repl-stats needs a replica (`replica`)");
    kbt::repl::Follower::Stats s = follower->stats();
    const char* state = "idle";
    switch (s.state) {
      case kbt::repl::FollowerState::kIdle: state = "idle"; break;
      case kbt::repl::FollowerState::kStreaming: state = "streaming"; break;
      case kbt::repl::FollowerState::kLost: state = "lost"; break;
      case kbt::repl::FollowerState::kPromoted: state = "promoted"; break;
    }
    std::cout << "state=" << state << " epoch=" << s.epoch
              << " applied_lsn=" << s.applied_lsn
              << " primary_lsn=" << s.primary_lsn
              << " batches=" << s.batches_applied
              << " records=" << s.records_applied
              << " reconnects=" << s.reconnects
              << " resubscribes=" << s.resubscribes
              << " snapshot_installs=" << s.snapshot_installs
              << " stale_refused=" << s.stale_batches_refused << "\n";
    return Status::OK();
  }

  Status Execute(std::string_view line) {
    line = Trim(line);
    if (line.empty() || line.front() == '#') return Status::OK();
    size_t space = line.find(' ');
    std::string_view cmd = line.substr(0, space);
    std::string_view args =
        space == std::string_view::npos ? std::string_view() : Trim(line.substr(space + 1));

    if (cmd == "quit" || cmd == "exit") {
      quit = true;
      return Status::OK();
    }
    if (cmd == "help") {
      std::cout << "commands: init load open insert apply query possibly if if? "
                   "expect expect-error show worlds checkpoint sync stats "
                   "replica repl-wait promote repl-stats help quit\n";
      return Status::OK();
    }
    if (cmd == "expect-error") {
      if (args.empty())
        return Status::InvalidArgument("expect-error needs a command");
      Status inner = Execute(args);
      if (inner.ok())
        return Status::Internal("expected an error but `" + std::string(args) +
                                "` succeeded");
      std::cout << "ok: error: " << inner.message() << "\n";
      return Status::OK();
    }
    if (cmd == "init") return Init(args);
    if (cmd == "load") return Load(args);
    if (cmd == "open") return OpenStore(args);
    if (cmd == "insert") {
      if (args.empty()) return Status::InvalidArgument("insert needs a sentence");
      return Write("tau{" + std::string(args) + "}");
    }
    if (cmd == "apply") return Write(args);
    if (cmd == "query") return Query(args, kbt::Modality::kNecessarily);
    if (cmd == "possibly") return Query(args, kbt::Modality::kPossibly);
    if (cmd == "if") return If(args, kbt::Modality::kNecessarily);
    if (cmd == "if?") return If(args, kbt::Modality::kPossibly);
    if (cmd == "expect") return Expect(args);
    if (cmd == "stats") return Stats();
    if (cmd == "replica") return Replica(args);
    if (cmd == "repl-wait") return ReplWait(args);
    if (cmd == "promote") return Promote();
    if (cmd == "repl-stats") return ReplStats();
    if (cmd == "show") {
      KBT_RETURN_IF_ERROR(RequireServer());
      std::cout << kbt::FormatKnowledgebase(srv()->CurrentSnapshot()->kb)
                << "\n";
      return Status::OK();
    }
    if (cmd == "worlds") {
      KBT_RETURN_IF_ERROR(RequireServer());
      std::shared_ptr<const kbt::serve::Snapshot> snap = srv()->CurrentSnapshot();
      std::cout << snap->kb.size() << " world(s) at version " << snap->version
                << "\n";
      return Status::OK();
    }
    if (cmd == "checkpoint") {
      KBT_RETURN_IF_ERROR(RequireServer());
      KBT_RETURN_IF_ERROR(srv()->Checkpoint());
      std::cout << "ok\n";
      return Status::OK();
    }
    if (cmd == "sync") {
      KBT_RETURN_IF_ERROR(RequireServer());
      KBT_RETURN_IF_ERROR(srv()->Sync());
      std::cout << "ok\n";
      return Status::OK();
    }
    return Status::InvalidArgument("unknown command '" + std::string(cmd) +
                                   "' (try `help`)");
  }
};

int Run(std::istream& in, bool strict, bool echo) {
  Shell shell;
  std::string line;
  if (!strict) std::cout << "kbt> " << std::flush;
  while (!shell.quit && std::getline(in, line)) {
    if (echo) std::cout << "kbt> " << line << "\n";
    Status s = shell.Execute(line);
    if (!s.ok()) {
      std::cout << "error: " << s.message() << "\n";
      if (strict) return 1;
    }
    if (!strict && !shell.quit) std::cout << "kbt> " << std::flush;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string script;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--script" && i + 1 < argc) {
      script = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: kbt_shell [--script FILE]\n";
      return 0;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    }
  }
  if (!script.empty()) {
    std::ifstream in(script);
    if (!in) {
      std::cerr << "cannot open " << script << "\n";
      return 2;
    }
    return Run(in, /*strict=*/true, /*echo=*/true);
  }
  return Run(std::cin, /*strict=*/false, /*echo=*/false);
}
