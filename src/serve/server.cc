#include "serve/server.h"

#include <chrono>
#include <utility>

#include "logic/parser.h"

namespace kbt::serve {

namespace {

/// Distinct sentences the shared cache bank holds (LRU beyond it).
constexpr size_t kCacheBankCapacity = 64;

}  // namespace

// ---------------------------------------------------------------------------
// Session

StatusOr<ReadResult> Session::Query(const ReadRequest& request) {
  std::shared_ptr<const Snapshot> snap = server_->registry_.Current();
  return server_->ExecuteRead(*this, *snap, request);
}

StatusOr<ReadResult> Session::Holds(std::string_view sentence,
                                    Modality modality) {
  ReadRequest request;
  request.consequent = std::string(sentence);
  request.modality = modality;
  return Query(request);
}

StatusOr<uint64_t> Session::Apply(std::string_view expression) {
  return server_->Apply(expression);
}

// ---------------------------------------------------------------------------
// Server

Server::Server(ServerOptions options, Knowledgebase initial)
    : options_(std::move(options)),
      registry_(std::move(initial)),
      bank_(kCacheBankCapacity, options_.cache_entry_byte_budget,
            options_.cache_entry_max_domains) {}

Server::Server(Knowledgebase initial, ServerOptions options)
    : Server(std::move(options), std::move(initial)) {
  own_engine_ = std::make_unique<Engine>(options_.engine);
}

StatusOr<std::unique_ptr<Server>> Server::OpenDurable(
    const std::string& dir, const Knowledgebase& initial,
    store::StoreOptions store_options, ServerOptions options) {
  KBT_ASSIGN_OR_RETURN(
      std::unique_ptr<store::DurableEngine> store,
      store::DurableEngine::Open(dir, initial, store_options, options.engine));
  // The store's recovered state — not `initial` — is version 0: reopening a
  // server resumes exactly where the committed log left off.
  Knowledgebase committed = store->kb();
  auto server = std::unique_ptr<Server>(
      new Server(std::move(options), std::move(committed)));
  server->durable_ = std::move(store);
  return server;
}

Server::~Server() = default;

std::unique_ptr<Session> Server::StartSession() {
  return std::unique_ptr<Session>(
      new Session(this, next_session_id_.fetch_add(1, std::memory_order_relaxed)));
}

Status Server::RefuseWhenReadOnly() {
  if (!read_only()) return Status::OK();
  std::string hint = redirect_hint();
  std::string message = "server is read-only (replica)";
  if (!hint.empty()) message += "; primary at " + hint;
  return Status::ReadOnly(std::move(message));
}

StatusOr<uint64_t> Server::Apply(std::string_view expression) {
  uint64_t version = 0;
  uint64_t lsn = 0;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    KBT_RETURN_IF_ERROR(RefuseWhenReadOnly());
    Knowledgebase result;
    if (durable_ != nullptr) {
      KBT_ASSIGN_OR_RETURN(result, durable_->Apply(expression));
      lsn = durable_->lsn();
    } else {
      KBT_ASSIGN_OR_RETURN(
          result, own_engine_->Apply(expression, registry_.Current()->kb));
    }
    version = FinishCommit(std::move(result));
  }
  // Semi-sync wait happens OUTSIDE the writer lock: follower acks (and other
  // writers) must not queue behind this client's wait. An error here reports
  // "durable locally, not yet on any replica" — the commit stands.
  if (commit_waiter_ != nullptr && durable_ != nullptr) {
    KBT_RETURN_IF_ERROR(commit_waiter_(lsn));
  }
  return version;
}

StatusOr<uint64_t> Server::ApplyReplicated(const store::WalRecord& record) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (durable_ == nullptr) {
    return Status::Unsupported("ApplyReplicated requires a durable store");
  }
  KBT_RETURN_IF_ERROR(durable_->ApplyReplicated(record));
  return FinishCommit(durable_->kb());
}

void Server::SetReadOnly(bool read_only, std::string redirect_hint) {
  {
    std::lock_guard<std::mutex> lock(hint_mu_);
    redirect_hint_ = std::move(redirect_hint);
  }
  read_only_.store(read_only, std::memory_order_release);
}

std::string Server::redirect_hint() const {
  std::lock_guard<std::mutex> lock(hint_mu_);
  return redirect_hint_;
}

uint64_t Server::FinishCommit(Knowledgebase result) {
  // Durability (when on) already happened inside the store's Apply; only now
  // does the new state become visible to readers.
  std::shared_ptr<const Snapshot> snap = registry_.Publish(std::move(result));
  commits_.fetch_add(1, std::memory_order_relaxed);
  if (durable_ != nullptr && options_.checkpoint_every > 0 &&
      ++commits_since_checkpoint_ >= options_.checkpoint_every) {
    // The commit is already durable, visible and counted, so a failed
    // checkpoint must not report it as failed. The counter stays due, so the
    // next commit retries. A checkpoint that left the store broken fails the
    // next Apply with the broken-store error before anything commits.
    if (durable_->Checkpoint().ok()) {
      commits_since_checkpoint_ = 0;
    } else {
      checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return snap->version;
}

Status Server::Checkpoint() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (durable_ == nullptr) return Status::OK();
  KBT_RETURN_IF_ERROR(durable_->Checkpoint());
  commits_since_checkpoint_ = 0;
  return Status::OK();
}

Status Server::Sync() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (durable_ == nullptr) return Status::OK();
  return durable_->Sync();
}

StatusOr<ReadResult> Server::ExecuteRead(Session& session, const Snapshot& snap,
                                         const ReadRequest& request) {
  reads_.fetch_add(1, std::memory_order_relaxed);

  // Resolve the antecedent chain. Bank entries are held for the duration of
  // the call so LRU eviction cannot pull a formula out from under a step.
  std::vector<std::shared_ptr<SentenceCaches>> entries;
  std::vector<ChainStep> steps;
  entries.reserve(request.antecedents.size());
  steps.reserve(request.antecedents.size());
  for (const std::string& text : request.antecedents) {
    KBT_ASSIGN_OR_RETURN(std::shared_ptr<SentenceCaches> entry,
                         bank_.Get(text));
    ChainStep step;
    step.antecedent = &entry->sentence;
    step.ground_cache = &entry->ground;
    step.cnf_cache = &entry->cnf;
    steps.push_back(step);
    entries.push_back(std::move(entry));
  }
  KBT_ASSIGN_OR_RETURN(Formula consequent, ParseSentence(request.consequent));

  TauOptions tau_options;
  tau_options.mu = options_.engine.mu;
  tau_options.solver = &session.solver_;
  tau_options.scratch = &session.scratch_;

  // Deadline plumbing. The per-request token lives on this stack frame; μ
  // disarms the solver before unwinding, so no reference outlives the call.
  // When no deadline, external token or budget is configured, none of this
  // is passed down and the read path is bit-identical to the limit-free one.
  CancelToken token;
  bool limited = request.deadline_ms > 0 || request.cancel != nullptr;
  if (limited) {
    if (request.deadline_ms > 0) {
      token.set_deadline_after(std::chrono::milliseconds(request.deadline_ms));
    }
    token.set_parent(request.cancel);
    tau_options.mu.cancel = &token;
  }
  if (options_.read_sat_conflict_budget > 0) {
    tau_options.mu.sat_conflict_budget = options_.read_sat_conflict_budget;
    limited = true;
  }

  TauStats tau_stats;
  StatusOr<bool> holds = NestedCounterfactual(
      snap.kb, steps, consequent, request.modality, tau_options,
      limited ? &tau_stats : nullptr);
  if (limited) {
    sat_interrupt_checks_.fetch_add(tau_stats.mu.sat_interrupt_checks,
                                    std::memory_order_relaxed);
    sat_budget_trips_.fetch_add(tau_stats.mu.sat_budget_trips,
                                std::memory_order_relaxed);
    if (!holds.ok() &&
        holds.status().code() == StatusCode::kDeadlineExceeded) {
      deadlines_exceeded_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  KBT_RETURN_IF_ERROR(holds.status());
  ReadResult result;
  result.holds = *holds;
  result.snapshot_version = snap.version;
  return result;
}

Server::ServerStats Server::stats() const {
  ServerStats stats;
  stats.commits = commits_.load(std::memory_order_relaxed);
  stats.reads = reads_.load(std::memory_order_relaxed);
  stats.checkpoint_failures =
      checkpoint_failures_.load(std::memory_order_relaxed);
  stats.bank_hits = bank_.hits();
  stats.bank_misses = bank_.misses();
  stats.bank_budget_evictions = bank_.budget_evictions();
  stats.snapshot_version = registry_.version();
  stats.deadlines_exceeded = deadlines_exceeded_.load(std::memory_order_relaxed);
  stats.sat_interrupt_checks =
      sat_interrupt_checks_.load(std::memory_order_relaxed);
  stats.sat_budget_trips = sat_budget_trips_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace kbt::serve
