// ShardRouter: shard-per-core deployment of the Amnesia server.
//
// The server is replicated into N shared-nothing shards. Each shard owns a
// full AmnesiaServer (routes, sessions, rendezvous, storage) plus the
// reactor it runs on; users are partitioned by hash(user) % N and a
// user's sessions, pending protocol rounds, poll queues, and database
// rows live on exactly one shard. Nothing is protected by a shared lock:
// the only way work crosses a shard boundary is an explicit message
// posted onto the owning shard's Executor (the eventfd wakeup channel of
// its EventLoop, or schedule-at-now on the shared Simulation in
// deterministic tests).
//
// The router hooks each shard's SecureServer plaintext handler. Decrypted
// requests are routed by whichever identity the route carries:
//
//   form `user`        /signup /login /pair/complete /recover/mp/confirm
//                      -> hash(user) % N
//   form `request_id`  /token /token/decline -> issuing shard, recovered
//                      from the id itself (shard k issues k+1, k+1+N, ...)
//   session cookie     every authenticated route -> the shard tag minted
//                      into the token ("s2.<hex>")
//   /push/poll         scatter-gather to every shard (the registration id
//                      is an opaque bearer token; its parked payloads live
//                      wherever the owning user does)
//   GET /metrics /trace/<id> /events /profile /slowlog
//                      scatter-gather + merge, so operators see one
//                      logical server; query strings (?level= ?since=
//                      ?ms=) ride along to every leg unchanged
//
// Anything unroutable (malformed request, missing field, untagged cookie)
// is handled locally — the shard that accepted the connection produces
// the same 4xx the single-shard server would.
//
// Mailbox fault points (docs/RESILIENCE.md): `shard.mailbox.forward` on
// the request leg (kError -> 503 to the client, kDrop -> silent loss) and
// `shard.mailbox.reply` on the response leg (any fault -> the reply is
// lost; for scatter-gather legs the aggregate degrades to a partial
// response rather than hanging). Clients already retry on both.
//
// N == 1 installs nothing: the stock SecureServer -> HttpServer wiring is
// untouched and behaviour stays bit-identical to the unsharded server.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "net/executor.h"
#include "resilience/fault.h"
#include "server/server_app.h"
#include "websvc/http.h"

namespace amnesia::server {

/// hash(user) % shard_count — FNV-1a 64, stable across platforms so a
/// user's shard never moves between runs or transports.
std::size_t shard_of_user(const std::string& user, std::size_t shard_count);

/// Session-token prefix shard `index` mints ("s2."); empty for a
/// single-shard deployment so tokens stay byte-identical to before.
std::string shard_token_prefix(std::size_t index, std::size_t shard_count);

/// Recovers the owning shard from a token's prefix; nullopt if the token
/// carries no (valid) tag.
std::optional<std::size_t> shard_of_token(const std::string& token,
                                          std::size_t shard_count);

/// Recovers the issuing shard from a request id (shard k issues ids
/// k+1, k+1+N, ...); nullopt for id 0, which no shard ever issues.
std::optional<std::size_t> shard_of_request_id(std::uint64_t request_id,
                                               std::size_t shard_count);

/// One shard as the router sees it.
struct ShardRef {
  AmnesiaServer* server = nullptr;
  /// Where this shard's work must run: its EventLoop in the multi-reactor
  /// deployment, or the shared Simulation in deterministic tests.
  net::Executor* exec = nullptr;
};

class ShardRouter {
 public:
  /// Installs the routing handler on every shard's SecureServer (no-op
  /// for a single shard). The router must outlive the servers' traffic.
  explicit ShardRouter(std::vector<ShardRef> shards);
  /// Restores every shard's stock SecureServer -> HttpServer handler, so
  /// the servers may outlive the router (teardown choreography).
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  std::size_t size() const { return shards_.size(); }

  /// Routing decision for one parsed request arriving on `origin`
  /// (exposed for tests; scatter/aggregate paths return nullopt).
  std::optional<std::size_t> route_target(const websvc::Request& req,
                                          std::size_t origin) const;

 private:
  struct ShardCounters {
    obs::Counter* forwarded_out = nullptr;
    obs::Counter* forwarded_in = nullptr;
    obs::Counter* scatter_ops = nullptr;
    obs::Counter* mailbox_dropped = nullptr;
  };

  void handle(std::size_t origin, const Bytes& plain,
              std::function<void(Bytes)> respond);
  void forward(std::size_t origin, std::size_t target, const Bytes& plain,
               std::function<void(Bytes)> respond);
  void scatter_poll(std::size_t origin, const Bytes& plain,
                    std::function<void(Bytes)> respond);
  void aggregate_metrics(std::size_t origin, std::function<void(Bytes)> respond);
  void aggregate_trace(std::size_t origin, const std::string& id_hex,
                       std::function<void(Bytes)> respond);
  /// Replays the raw request on every shard (query string and all) and
  /// hands the parsed per-shard responses to `finish` on the origin
  /// thread. Shared leg-work for /events, /profile, and /slowlog, whose
  /// filters (?level= ?since= ?ms=) are parsed by each shard's own route.
  void aggregate_responses(
      std::size_t origin, const Bytes& plain,
      std::function<void(std::vector<websvc::Response>)> finish);
  void aggregate_events(std::size_t origin, const Bytes& plain,
                        std::function<void(Bytes)> respond);
  void aggregate_profile(std::size_t origin, const Bytes& plain,
                         std::function<void(Bytes)> respond);
  void aggregate_slowlog(std::size_t origin, const Bytes& plain,
                         std::function<void(Bytes)> respond);

  /// Scatter-gather skeleton. `collect` runs on each shard's own thread
  /// and eventually delivers that shard's part; `finish` runs on the
  /// origin thread once every part arrived (faulted legs deliver an
  /// empty/default part — the aggregate degrades, it never hangs).
  template <typename T>
  void gather(
      std::size_t origin,
      std::function<void(std::size_t shard, AmnesiaServer& server,
                         std::function<void(T)> deliver)> collect,
      std::function<void(std::vector<T>)> finish) {
    struct State {
      std::vector<T> parts;
      std::size_t remaining;
      std::function<void(std::vector<T>)> finish;
    };
    auto state = std::make_shared<State>();
    state->parts.resize(shards_.size());
    state->remaining = shards_.size();
    state->finish = std::move(finish);
    net::Executor* origin_exec = shards_[origin].exec;
    // Runs on the origin thread; lands part k and fires finish on the last.
    auto land = [state](std::size_t k, T part) {
      state->parts[k] = std::move(part);
      if (--state->remaining == 0) state->finish(std::move(state->parts));
    };
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      if (k == origin) {
        collect(k, *shards_[k].server,
                [land, k](T part) { land(k, std::move(part)); });
        continue;
      }
      if (resilience::fault_check("shard.mailbox.forward")) {
        counters_[origin].mailbox_dropped->inc();
        land(k, T{});
        continue;
      }
      shards_[k].exec->post([this, k, origin_exec, state, land, collect] {
        collect(k, *shards_[k].server,
                [this, k, origin_exec, land](T part) {
                  if (resilience::fault_check("shard.mailbox.reply")) {
                    counters_[k].mailbox_dropped->inc();
                    part = T{};
                  }
                  origin_exec->post([land, k, part = std::move(part)]() mutable {
                    land(k, std::move(part));
                  });
                });
      });
    }
  }

  std::vector<ShardRef> shards_;
  std::vector<ShardCounters> counters_;
};

}  // namespace amnesia::server
