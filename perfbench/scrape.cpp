#include "scrape.h"

#include <stdexcept>
#include <string>

#include "stats.h"

namespace perfbench {

using namespace amnesia;

namespace {

/// Runs `loop` until `done()` holds; throws after `timeout_us`.
void run_until(net::EventLoop& loop, const std::function<bool()>& done,
               Micros timeout_us, const char* what) {
  const Micros deadline = loop.clock().now_us() + timeout_us;
  while (!done()) {
    if (loop.clock().now_us() >= deadline) {
      throw std::runtime_error(std::string("timed out: ") + what);
    }
    loop.poll(1'000);
  }
}

}  // namespace

Scraper::Scraper(net::EventLoop& loop, const std::vector<std::uint16_t>& ports,
                 const crypto::X25519Key& server_key)
    : loop_(loop), rng_(0x5c4a9e) {
  websvc::ConnectionPoolConfig pc;
  pc.max_connections = 1;
  // One channel for the whole run: a redial inside a window would show
  // up as a resumption in the very counters being scraped.
  pc.idle_timeout_us = 3'600'000'000;
  for (const std::uint16_t port : ports) {
    Target t;
    t.pool = std::make_unique<websvc::ConnectionPool>(
        loop_, "127.0.0.1", port, server_key, rng_, pc);
    t.http = std::make_unique<websvc::HttpClient>(t.pool->transport());
    targets_.push_back(std::move(t));
  }
}

Scraper::~Scraper() = default;

obs::Snapshot Scraper::scrape() {
  obs::Snapshot merged;
  for (Target& t : targets_) {
    bool done = false;
    std::string body;
    std::string error;
    t.http->get("/metrics", [&](Result<websvc::Response> r) {
      if (!r.ok()) {
        error = r.message();
      } else if (r.value().status != 200) {
        error = "status " + std::to_string(r.value().status);
      } else {
        body = r.value().body;
      }
      done = true;
    });
    run_until(loop_, [&] { return done; }, 30'000'000, "GET /metrics");
    if (!error.empty()) throw std::runtime_error("GET /metrics: " + error);
    merge_metrics_text(merged, body);
  }
  return merged;
}

}  // namespace perfbench
