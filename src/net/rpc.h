// Request/response RPC over a ByteStream.
//
// Frame payloads deliberately mirror simnet::Node's wire framing —
// [kind:1][corr_id:8 big-endian][body] — so a framed stream is a drop-in
// replacement for a Node RPC pipe: the body bytes (securechan envelopes,
// serialized HTTP) are identical over either backend. Correlation ids let
// one connection carry pipelined requests whose responses complete out of
// order (the Amnesia server answers a password request only after the
// phone round-trip, while later requests on the same connection finish
// immediately).
//
// Traced variants (kinds 2/3) carry a serialized obs::TraceContext as
// frame metadata between corr_id and body —
// [kind:1][corr_id:8][trace_len:1][trace][body] — used automatically when
// the sender has an ambient trace; untraced peers keep the legacy kinds.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>

#include "common/bytes.h"
#include "common/result.h"
#include "net/framing.h"
#include "net/transport.h"
#include "resilience/policy.h"

namespace amnesia::obs {
class MetricsRegistry;
}

namespace amnesia::net {

using ResponseHandler = std::function<void(Result<Bytes>)>;

constexpr Micros kDefaultRpcTimeoutUs = 10'000'000;  // 10 s, as simnet::Node

/// One framed RPC endpoint bound to a stream. Symmetric: it can issue
/// requests and serve them (RpcListener uses handler mode; RpcClient uses
/// request mode). Owners hold the shared_ptr; stream callbacks hold weak
/// references, so dropping the owner tears the peer down.
class RpcPeer : public std::enable_shared_from_this<RpcPeer> {
 public:
  /// Server-side handler; `respond` may be stored and called later (at
  /// most once), exactly like simnet::Node::RpcHandler.
  using Handler =
      std::function<void(const Bytes& body, std::function<void(Bytes)> respond)>;

  static std::shared_ptr<RpcPeer> attach(StreamPtr stream, Executor& executor);

  ~RpcPeer() = default;

  void set_handler(Handler handler) { handler_ = std::move(handler); }
  /// Invoked when the underlying stream closes (peer FIN, error, idle
  /// timeout). Pending requests have already been failed at this point.
  void set_on_close(std::function<void()> fn) { on_close_ = std::move(fn); }

  /// Issues one request; `cb` gets the response body, or kUnavailable on
  /// timeout / close. `trace` is a serialized obs::TraceContext rides in
  /// the frame metadata (empty = capture the ambient context, which is
  /// also the default when no trace is active: the frame then stays in
  /// the untraced legacy format).
  void request(Bytes body, ResponseHandler cb,
               Micros timeout_us = kDefaultRpcTimeoutUs,
               std::string trace = {});

  /// Closes the stream and fails all pending requests.
  void close();
  bool closed() const { return closed_; }
  ByteStream& stream() { return *stream_; }

 private:
  RpcPeer(StreamPtr stream, Executor& executor)
      : stream_(std::move(stream)), executor_(executor) {}

  void on_data(ByteView chunk);
  void on_frame(ByteView frame);
  void on_stream_close();
  void fail_pending(const std::string& reason);
  bool send_frame(std::uint8_t kind, std::uint64_t corr, ByteView body);
  bool send_traced_frame(std::uint8_t kind, std::uint64_t corr,
                         const std::string& trace, ByteView body);

  StreamPtr stream_;
  Executor& executor_;
  FrameDecoder decoder_;
  Handler handler_;
  std::function<void()> on_close_;
  std::map<std::uint64_t, ResponseHandler> pending_;
  std::uint64_t next_corr_ = 1;
  bool closed_ = false;
  Bytes frame_scratch_;  // reused per outbound frame
};

/// Server convenience: accepts every stream on a Transport and serves it
/// in handler mode, one RpcPeer per connection answering through
/// `handler` (the secure-channel port, the replication port).
class RpcListener {
 public:
  /// Starts listening immediately. The transport must outlive the
  /// listener; destroying the listener closes every open connection.
  RpcListener(Transport& transport, RpcPeer::Handler handler);
  ~RpcListener();

  RpcListener(const RpcListener&) = delete;
  RpcListener& operator=(const RpcListener&) = delete;

 private:
  RpcPeer::Handler handler_;
  std::map<RpcPeer*, std::shared_ptr<RpcPeer>> peers_;
};

/// Per-client retry policy for RpcClient (opt-in; off by default so
/// non-idempotent callers are never surprised). Retries fire only on
/// kUnavailable failures — timeouts, refused/closed connections.
struct RpcRetryConfig {
  resilience::BackoffConfig backoff{};
  std::uint64_t seed = 0;
  /// Optional shared breaker (caller-owned, must outlive the client).
  resilience::CircuitBreaker* breaker = nullptr;
  /// Optional shared retry budget (caller-owned).
  resilience::RetryBudget* budget = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-request deadline budget; each attempt's RPC timeout is clamped
  /// to what remains. 0 = no overall deadline (per-attempt timeout only).
  Micros deadline_us = 0;
};

/// Client convenience: lazily connects a Transport, then behaves like a
/// Node::request pipe. Requests issued before the connection completes are
/// queued and flushed, mirroring SecureClient's pre-handshake queue.
class RpcClient {
 public:
  explicit RpcClient(Transport& transport,
                     Micros timeout_us = kDefaultRpcTimeoutUs);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  void request(Bytes body, ResponseHandler cb);

  /// Enables retries for subsequent request() calls. The underlying
  /// reconnect-on-demand path makes a retry after a connection failure
  /// dial fresh.
  void set_retry(RpcRetryConfig config) { retry_ = std::move(config); }

  /// Adapter with the shape securechan::SecureClient and
  /// websvc::ByteTransport expect. The RpcClient must outlive the
  /// returned function.
  std::function<void(Bytes, ResponseHandler)> wire();

  bool connected() const { return peer_ != nullptr && !peer_->closed(); }
  void close();
  RpcPeer* peer() { return peer_.get(); }

 private:
  void start_connect();
  void flush_waiting();
  /// One attempt: the pre-retry request() body.
  void request_once(Bytes body, ResponseHandler cb, Micros timeout_us,
                    std::string trace);

  Transport& transport_;
  Micros timeout_us_;
  std::shared_ptr<RpcPeer> peer_;
  bool connecting_ = false;
  /// body, callback, timeout, serialized trace context (captured when the
  /// caller issued the request — the ambient context is gone by the time
  /// the connect callback flushes the queue).
  std::deque<std::tuple<Bytes, ResponseHandler, Micros, std::string>> waiting_;
  std::optional<RpcRetryConfig> retry_;
  std::uint64_t retry_calls_ = 0;  // per-call jitter stream derivation
};

}  // namespace amnesia::net
