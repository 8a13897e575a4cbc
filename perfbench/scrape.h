// The operator's view: GET /metrics over the same secure channel clients
// use, merged across every scrape port of a deployment.
//
// Not every metric on the page is real time. websvc::HttpServer runs on
// the server's Simulation executor, bridged to wall time by the gateway,
// so http.route.*.latency_us, protocol.round_latency_us and
// rendezvous.push_ack_us read the *simulation* clock and exclude the real
// CPU spent in between. The benchmark records them but never uses them
// as a layer's time.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/drbg.h"
#include "net/event_loop.h"
#include "obs/metrics.h"
#include "websvc/client.h"
#include "websvc/pool.h"

namespace perfbench {

class Scraper {
 public:
  Scraper(amnesia::net::EventLoop& loop,
          const std::vector<std::uint16_t>& ports,
          const amnesia::crypto::X25519Key& server_key);
  ~Scraper();

  /// Fetches GET /metrics from every port and returns the merged
  /// snapshot; throws on a failed or malformed scrape.
  amnesia::obs::Snapshot scrape();

 private:
  struct Target {
    std::unique_ptr<amnesia::websvc::ConnectionPool> pool;
    std::unique_ptr<amnesia::websvc::HttpClient> http;
  };
  amnesia::net::EventLoop& loop_;
  amnesia::crypto::ChaChaDrbg rng_;
  std::vector<Target> targets_;
};

}  // namespace perfbench
