#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace kbt::net {

namespace {

/// Cap on the doubling backoff between attempts.
constexpr uint64_t kMaxBackoffMs = 1'000;
/// Socket timeouts of a dialed connection.
constexpr uint64_t kConnectTimeoutMs = 2'000;
constexpr uint64_t kReadTimeoutMs = 30'000;
constexpr uint64_t kWriteTimeoutMs = 10'000;

/// True for errors where the request provably produced no observable effect
/// on this connection attempt (safe to retry idempotent *and* — when the
/// request never left — non-idempotent calls).
bool IsRetryableTransportError(const Status& s) {
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kIOError || s.code() == StatusCode::kDataLoss;
}

}  // namespace

Client::Client(TransportFactory factory, ClientOptions options)
    : factory_(std::move(factory)), options_(options) {}

Client Client::Dial(std::string host, uint16_t port, ClientOptions options) {
  TransportFactory factory = [host = std::move(host), port] {
    return DialTcp(host, port, kConnectTimeoutMs, kReadTimeoutMs,
                   kWriteTimeoutMs);
  };
  return Client(std::move(factory), options);
}

void Client::Disconnect() {
  if (transport_ != nullptr) transport_->Shutdown();
  transport_.reset();
}

Status Client::EnsureConnected() {
  if (transport_ != nullptr) return Status::OK();
  StatusOr<std::unique_ptr<Transport>> t = factory_();
  if (!t.ok()) return t.status();
  transport_ = std::move(*t);
  return Status::OK();
}

void Client::Backoff(size_t attempt, uint32_t server_hint_ms) {
  uint64_t backoff = options_.initial_backoff_ms;
  for (size_t i = 0; i < attempt; ++i) {
    backoff = std::min(backoff * 2, kMaxBackoffMs);
  }
  backoff = std::max<uint64_t>(backoff, server_hint_ms);
  if (backoff > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
}

Status Client::Exchange(uint8_t type, const std::string& payload,
                        uint8_t expected_reply, std::string* reply_payload,
                        bool* sent, bool* typed_reply,
                        uint32_t* retry_after_ms) {
  *sent = false;
  *typed_reply = false;
  *retry_after_ms = 0;
  KBT_RETURN_IF_ERROR(EnsureConnected());
  uint16_t seq = next_seq_++;
  if (next_seq_ == 0) next_seq_ = 1;  // 0 is reserved for unpaired frames.
  Status write = WriteFrame(*transport_, type, payload, seq);
  if (!write.ok()) {
    // A failed WriteAll may still have pushed bytes into the kernel buffer
    // before dying, so a write error does not prove the request never
    // arrived. Treat it conservatively as sent.
    *sent = true;
    Disconnect();
    return write;
  }
  *sent = true;
  uint8_t reply_type = 0;
  std::string reply;
  uint16_t reply_seq = 0;
  Status read = ReadFrame(*transport_, &reply_type, &reply, &reply_seq);
  if (!read.ok()) {
    Disconnect();
    return read;
  }
  if (reply_type == static_cast<uint8_t>(FrameType::kError)) {
    StatusOr<WireError> e = DecodeError(reply);
    if (!e.ok()) {
      Disconnect();
      return e.status();
    }
    // Errors are authoritative only when they answer *this* request (seq
    // matches) or precede any request (seq 0, an accept-time reject). A
    // stale error (duplicated frame) must not be read as "not executed" —
    // that would green-light an unsafe Apply retry.
    if (reply_seq != seq && reply_seq != 0) {
      Disconnect();
      return Status::DataLoss("stale error reply (seq " +
                              std::to_string(reply_seq) + " for request " +
                              std::to_string(seq) + ")");
    }
    *typed_reply = true;
    *retry_after_ms = e->retry_after_ms;
    // A typed error reply is an authoritative "not executed" for rejects
    // (kUnavailable) and a final answer for everything else. The connection
    // stays usable.
    return StatusFromError(*e);
  }
  if (reply_type != expected_reply || reply_seq != seq) {
    // Wrong type or a stale duplicate of an earlier reply: the stream is
    // desynced; drop the connection rather than trust it.
    Disconnect();
    return Status::DataLoss("unexpected reply (type " +
                            std::to_string(reply_type) + ", seq " +
                            std::to_string(reply_seq) + " for request " +
                            std::to_string(seq) + ")");
  }
  *reply_payload = std::move(reply);
  return Status::OK();
}

StatusOr<std::string> Client::Call(FrameType type, const std::string& payload,
                                   FrameType expected_reply, Retry retry) {
  last_attempts_ = 0;
  if (retry == Retry::kIfNotExecuted) maybe_executed_ = false;
  const size_t max_attempts =
      retry == Retry::kNever ? 1 : options_.max_attempts;
  Status last = Status::Unavailable("no attempts made");
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    last_attempts_ = attempt + 1;
    std::string reply;
    bool sent = false;
    bool typed = false;
    uint32_t hint = 0;
    Status s = Exchange(static_cast<uint8_t>(type), payload,
                        static_cast<uint8_t>(expected_reply), &reply, &sent,
                        &typed, &hint);
    if (s.ok()) return reply;
    if (retry == Retry::kNever || !IsRetryableTransportError(s)) return s;
    // Apply is not idempotent: retry it ONLY when the server provably did
    // not execute it — a typed kUnavailable reply (rejected before execution)
    // or a failure before the request bytes left.
    bool provably_not_executed =
        !sent || (typed && s.code() == StatusCode::kUnavailable);
    if (retry == Retry::kIfNotExecuted && !provably_not_executed) {
      maybe_executed_ = true;
      return Status::Unavailable(
          "apply outcome unknown: connection failed after request was sent (" +
          s.ToString() + ")");
    }
    last = s;
    if (attempt + 1 < max_attempts) Backoff(attempt, hint);
  }
  return last;
}

StatusOr<ClientReadResult> Client::Read(
    const std::vector<std::string>& antecedents, const std::string& consequent,
    bool necessarily, uint64_t deadline_ms) {
  if (antecedents.size() > kMaxChainDepth) {
    last_attempts_ = 0;
    return Status::InvalidArgument("antecedent chain over wire cap");
  }
  WireReadRequest request;
  request.antecedents = antecedents;
  request.consequent = consequent;
  request.modality = necessarily ? 0 : 1;
  request.deadline_ms = deadline_ms;
  KBT_ASSIGN_OR_RETURN(std::string reply,
                       Call(FrameType::kReadRequest, EncodeReadRequest(request),
                            FrameType::kReadReply, Retry::kAny));
  KBT_ASSIGN_OR_RETURN(WireReadReply decoded, DecodeReadReply(reply));
  ClientReadResult result;
  result.holds = decoded.holds;
  result.snapshot_version = decoded.snapshot_version;
  return result;
}

StatusOr<uint64_t> Client::Apply(const std::string& expression) {
  WireApplyRequest request;
  request.expression = expression;
  KBT_ASSIGN_OR_RETURN(
      std::string reply,
      Call(FrameType::kApplyRequest, EncodeApplyRequest(request),
           FrameType::kApplyReply, Retry::kIfNotExecuted));
  KBT_ASSIGN_OR_RETURN(WireApplyReply decoded, DecodeApplyReply(reply));
  return decoded.version;
}

StatusOr<WireStatsReply> Client::Stats() {
  KBT_ASSIGN_OR_RETURN(std::string reply,
                       Call(FrameType::kStatsRequest, "",
                            FrameType::kStatsReply, Retry::kAny));
  return DecodeStatsReply(reply);
}

Status Client::Ping() {
  return Call(FrameType::kPing, "", FrameType::kPong, Retry::kNever).status();
}

}  // namespace kbt::net
