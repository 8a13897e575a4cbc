#include "server/shard.h"

#include <string>

#include "common/error.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace amnesia::server {

using websvc::Method;
using websvc::Request;
using websvc::Response;

std::size_t shard_of_user(const std::string& user, std::size_t shard_count) {
  // FNV-1a 64: tiny, dependency-free, and stable — the same user must
  // land on the same shard from every process, platform, and transport.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : user) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return shard_count <= 1 ? 0 : static_cast<std::size_t>(h % shard_count);
}

std::string shard_token_prefix(std::size_t index, std::size_t shard_count) {
  if (shard_count <= 1) return "";
  return "s" + std::to_string(index) + ".";
}

std::optional<std::size_t> shard_of_token(const std::string& token,
                                          std::size_t shard_count) {
  if (token.size() < 3 || token[0] != 's') return std::nullopt;
  const std::size_t dot = token.find('.');
  if (dot == std::string::npos || dot < 2) return std::nullopt;
  std::size_t index = 0;
  for (std::size_t i = 1; i < dot; ++i) {
    const char c = token[i];
    if (c < '0' || c > '9') return std::nullopt;
    index = index * 10 + static_cast<std::size_t>(c - '0');
    if (index >= shard_count) return std::nullopt;
  }
  return index;
}

std::optional<std::size_t> shard_of_request_id(std::uint64_t request_id,
                                               std::size_t shard_count) {
  if (request_id == 0) return std::nullopt;
  return static_cast<std::size_t>((request_id - 1) % shard_count);
}

ShardRouter::ShardRouter(std::vector<ShardRef> shards)
    : shards_(std::move(shards)) {
  if (shards_.empty()) throw Error("ShardRouter: needs at least one shard");
  if (shards_.size() == 1) return;  // stock wiring stays bit-identical
  counters_.reserve(shards_.size());
  for (ShardRef& shard : shards_) {
    obs::MetricsRegistry& m = shard.server->metrics();
    counters_.push_back(ShardCounters{
        &m.counter("shard.forwarded_out"),
        &m.counter("shard.forwarded_in"),
        &m.counter("shard.scatter_ops"),
        &m.counter("shard.mailbox_dropped"),
    });
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].server->secure().set_handler(
        [this, i](const Bytes& plain, std::function<void(Bytes)> respond) {
          handle(i, plain, std::move(respond));
        });
  }
}

ShardRouter::~ShardRouter() {
  if (shards_.size() == 1) return;
  for (ShardRef& shard : shards_) {
    AmnesiaServer* server = shard.server;
    server->secure().set_handler(
        [server](const Bytes& plain, std::function<void(Bytes)> respond) {
          server->http().handle_bytes(plain, std::move(respond));
        });
  }
}

std::optional<std::size_t> ShardRouter::route_target(const Request& req,
                                                     std::size_t origin) const {
  const std::size_t n = shards_.size();
  const std::string& path = req.path;
  if (req.method == Method::kGet &&
      (path == "/metrics" || path == "/events" || path == "/profile" ||
       path == "/slowlog" || path.starts_with("/trace/"))) {
    return std::nullopt;  // aggregate: no single owner
  }
  if (path == "/push/poll") return std::nullopt;  // scatter: every shard
  if (path == "/signup" || path == "/login" || path == "/pair/complete" ||
      path == "/recover/mp/confirm") {
    const auto form = req.form();
    const auto it = form.find("user");
    // Missing field: handle locally so the stock 400 comes back.
    return it == form.end() ? origin : shard_of_user(it->second, n);
  }
  if (path == "/token" || path == "/token/decline") {
    const auto form = req.form();
    const auto it = form.find("request_id");
    if (it != form.end()) {
      try {
        if (const auto k = shard_of_request_id(std::stoull(it->second), n)) {
          return *k;
        }
      } catch (const std::exception&) {
        // malformed id: local shard produces the stock 400
      }
    }
    return origin;
  }
  if (const auto token = req.cookie("session")) {
    if (const auto k = shard_of_token(*token, n)) return *k;
  }
  return origin;  // unauthenticated / untagged: the stock 401 is local
}

void ShardRouter::handle(std::size_t origin, const Bytes& plain,
                         std::function<void(Bytes)> respond) {
  Request req;
  try {
    req = websvc::parse_request(plain);
  } catch (const FormatError&) {
    // Unparseable bytes can't name an owner; the local HttpServer turns
    // them into the same 400 the single-shard server would.
    shards_[origin].server->http().handle_bytes(plain, std::move(respond));
    return;
  }
  if (req.method == Method::kGet && req.path == "/metrics") {
    aggregate_metrics(origin, std::move(respond));
    return;
  }
  if (req.method == Method::kGet && req.path == "/events") {
    aggregate_events(origin, plain, std::move(respond));
    return;
  }
  if (req.method == Method::kGet && req.path == "/profile") {
    aggregate_profile(origin, plain, std::move(respond));
    return;
  }
  if (req.method == Method::kGet && req.path == "/slowlog") {
    aggregate_slowlog(origin, plain, std::move(respond));
    return;
  }
  if (req.method == Method::kGet && req.path.starts_with("/trace/")) {
    aggregate_trace(origin, req.path.substr(7), std::move(respond));
    return;
  }
  if (req.path == "/push/poll") {
    scatter_poll(origin, plain, std::move(respond));
    return;
  }
  const auto target = route_target(req, origin);
  if (!target || *target == origin) {
    shards_[origin].server->http().handle_bytes(plain, std::move(respond));
    return;
  }
  forward(origin, *target, plain, std::move(respond));
}

void ShardRouter::forward(std::size_t origin, std::size_t target,
                          const Bytes& plain,
                          std::function<void(Bytes)> respond) {
  if (const auto fault = resilience::fault_check("shard.mailbox.forward")) {
    counters_[origin].mailbox_dropped->inc();
    if (fault->kind == resilience::FaultKind::kError) {
      respond(websvc::serialize(
          Response::error(503, "shard mailbox unavailable")));
    }
    return;  // kDrop: silent loss; the client's retry re-sends
  }
  counters_[origin].forwarded_out->inc();
  // Copy: `plain` aliases the secure channel's reused scratch buffer,
  // which the accepting thread overwrites on its next record.
  Bytes copy = plain;
  const obs::TraceContext trace = obs::current_trace();
  net::Executor* origin_exec = shards_[origin].exec;
  shards_[target].exec->post([this, origin_exec, target, trace,
                              copy = std::move(copy),
                              respond = std::move(respond)]() mutable {
    counters_[target].forwarded_in->inc();
    // The request bytes carry X-Amnesia-Trace too; re-establishing the
    // ambient context keeps spans opened outside the HTTP layer parented.
    obs::ScopedTrace scoped(trace);
    shards_[target].server->http().handle_bytes(
        copy, [this, target, origin_exec,
               respond = std::move(respond)](Bytes response) mutable {
          if (resilience::fault_check("shard.mailbox.reply")) {
            counters_[target].mailbox_dropped->inc();
            return;  // reply lost in the mailbox; the client retries
          }
          origin_exec->post(
              [respond = std::move(respond),
               response = std::move(response)]() mutable {
                respond(std::move(response));
              });
        });
  });
}

void ShardRouter::scatter_poll(std::size_t origin, const Bytes& plain,
                               std::function<void(Bytes)> respond) {
  counters_[origin].scatter_ops->inc();
  // Every leg needs the request bytes on its own thread; one shared copy.
  auto wire = std::make_shared<const Bytes>(plain);
  gather<std::string>(
      origin,
      [wire](std::size_t, AmnesiaServer& server,
             std::function<void(std::string)> deliver) {
        server.http().handle_bytes(*wire, [deliver](Bytes raw) {
          try {
            const Response resp = websvc::parse_response(raw);
            deliver(resp.status == 200 ? resp.body : std::string());
          } catch (const FormatError&) {
            deliver("");
          }
        });
      },
      [respond = std::move(respond)](std::vector<std::string> parts) {
        // Parked payloads stay until TTL and the phone dedups by request
        // id, so concatenation (even with a faulted leg missing) keeps
        // the at-least-once contract.
        std::string body;
        for (const std::string& part : parts) body += part;
        respond(websvc::serialize(Response::ok_text(std::move(body))));
      });
}

void ShardRouter::aggregate_metrics(std::size_t origin,
                                    std::function<void(Bytes)> respond) {
  counters_[origin].scatter_ops->inc();
  gather<std::string>(
      origin,
      [](std::size_t, AmnesiaServer& server,
         std::function<void(std::string)> deliver) {
        deliver(obs::to_text(server.metrics().snapshot()));
      },
      [respond = std::move(respond)](std::vector<std::string> parts) {
        obs::Snapshot merged;
        for (const std::string& part : parts) {
          if (part.empty()) continue;  // faulted leg
          obs::merge_snapshot(merged, obs::parse_text(part));
        }
        respond(websvc::serialize(Response::ok_text(obs::to_text(merged))));
      });
}

void ShardRouter::aggregate_trace(std::size_t origin, const std::string& id_hex,
                                  std::function<void(Bytes)> respond) {
  const auto id = obs::parse_trace_id_hex(id_hex);
  if (!id) {
    respond(websvc::serialize(Response::error(400, "malformed trace id")));
    return;
  }
  counters_[origin].scatter_ops->inc();
  gather<std::vector<obs::TraceSpan>>(
      origin,
      [id](std::size_t, AmnesiaServer& server,
           std::function<void(std::vector<obs::TraceSpan>)> deliver) {
        deliver(server.metrics().tracer().trace(*id));
      },
      [respond = std::move(respond)](
          std::vector<std::vector<obs::TraceSpan>> parts) {
        std::vector<obs::TraceSpan> spans;
        for (auto& part : parts) {
          spans.insert(spans.end(), part.begin(), part.end());
        }
        if (spans.empty()) {
          respond(websvc::serialize(Response::error(404, "unknown trace")));
          return;
        }
        respond(websvc::serialize(
            Response::ok_text(obs::trace_to_json(spans))));
      });
}

void ShardRouter::aggregate_responses(
    std::size_t origin, const Bytes& plain,
    std::function<void(std::vector<Response>)> finish) {
  counters_[origin].scatter_ops->inc();
  // Replay the raw bytes on every shard so each leg's route parses the
  // query string itself — the router stays ignorant of filter syntax.
  auto wire = std::make_shared<const Bytes>(plain);
  gather<Response>(
      origin,
      [wire](std::size_t, AmnesiaServer& server,
             std::function<void(Response)> deliver) {
        server.http().handle_bytes(*wire, [deliver](Bytes raw) {
          try {
            deliver(websvc::parse_response(raw));
          } catch (const FormatError&) {
            deliver(Response{});  // counts as an empty-bodied leg
          }
        });
      },
      std::move(finish));
}

/// First non-200 leg (a shard's route rejected the query — e.g. malformed
/// ?level= or ?since=); every shard parses identically, so one veto
/// speaks for all. Faulted legs deliver a default 200/empty and pass.
static const Response* first_rejection(const std::vector<Response>& parts) {
  for (const Response& part : parts) {
    if (part.status != 200) return &part;
  }
  return nullptr;
}

void ShardRouter::aggregate_events(std::size_t origin, const Bytes& plain,
                                   std::function<void(Bytes)> respond) {
  aggregate_responses(
      origin, plain,
      [respond = std::move(respond)](std::vector<Response> parts) {
        if (const Response* err = first_rejection(parts)) {
          respond(websvc::serialize(*err));
          return;
        }
        std::string lines;
        for (const Response& part : parts) lines += part.body;
        respond(websvc::serialize(Response::ok_text(std::move(lines))));
      });
}

void ShardRouter::aggregate_profile(std::size_t origin, const Bytes& plain,
                                    std::function<void(Bytes)> respond) {
  aggregate_responses(
      origin, plain,
      [respond = std::move(respond)](std::vector<Response> parts) {
        if (const Response* err = first_rejection(parts)) {
          respond(websvc::serialize(*err));
          return;
        }
        // Each shard's /profile filters the process-wide sample stream to
        // its own reactor thread, so summing collapsed stacks across legs
        // never double-counts a sample.
        std::vector<std::string> texts;
        texts.reserve(parts.size());
        for (const Response& part : parts) texts.push_back(part.body);
        respond(websvc::serialize(
            Response::ok_text(obs::merge_collapsed(texts))));
      });
}

void ShardRouter::aggregate_slowlog(std::size_t origin, const Bytes& plain,
                                    std::function<void(Bytes)> respond) {
  aggregate_responses(
      origin, plain,
      [respond = std::move(respond)](std::vector<Response> parts) {
        if (const Response* err = first_rejection(parts)) {
          respond(websvc::serialize(*err));
          return;
        }
        std::string lines;
        for (const Response& part : parts) lines += part.body;
        respond(websvc::serialize(Response::ok_text(std::move(lines))));
      });
}

}  // namespace amnesia::server
