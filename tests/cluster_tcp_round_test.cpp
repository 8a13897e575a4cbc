// A lone bilateral round on a real-TCP semi-sync cluster finishes well
// inside one replication heartbeat.
//
// The rendezvous push waits behind the follower's ack (the replication
// barrier). That ack arrives on the reactor from a TCP socket, outside
// any simulation event; the push it releases must still go out at once,
// not with the next inbound request or the next heartbeat timer.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "client/browser.h"
#include "crypto/drbg.h"
#include "eval/replicated_testbed.h"
#include "net/event_loop.h"
#include "net/rpc.h"
#include "net/tcp.h"

namespace amnesia {
namespace {

/// Near-zero simnet links between every node of a two-replica world, so
/// a round's wall time is the servers' own work plus the real sockets.
void flatten_links(simnet::Network& net) {
  simnet::LinkProfile fast;
  fast.name = "near-zero";
  fast.base_latency_ms = 0.01;
  fast.jitter_ms = 0.0;
  fast.min_latency_ms = 0.005;
  fast.bandwidth_mbps = 40'000.0;
  fast.loss_probability = 0.0;
  net.set_default_link(fast);
  const std::vector<std::string> ids = {
      "browser",          "amnesia-server",      "gcm",
      "phone",            "cloud",               "amnesia-server.repl",
      "amnesia-server-f1", "amnesia-server-f1.repl"};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      net.set_duplex_link(ids[i], ids[j], fast, fast);
    }
  }
}

TEST(ClusterTcpRound, LoneRoundFinishesWellInsideOneHeartbeat) {
  eval::ReplicatedTcpConfig cfg;
  cfg.sim.base.seed = 11;
  cfg.sim.base.server.token_compute_mean_ms = 0.0;
  cfg.sim.base.server.token_compute_stddev_ms = 0.0;
  cfg.sim.base.server.light_compute_ms = 0.0;
  cfg.sim.base.phone.compute_mean_ms = 0.0;
  cfg.sim.base.phone.compute_stddev_ms = 0.0;
  ASSERT_EQ(cfg.sim.cluster.heartbeat_interval_us, 500'000)
      << "the regression is about the default heartbeat";
  eval::ReplicatedTcpTestbed st(cfg);
  flatten_links(st.bed().net());
  ASSERT_TRUE(st.bed().provision("Alice", "correct horse").ok());
  ASSERT_TRUE(st.bed().add_account("Alice", "example.com").ok());
  const auto expected = st.bed().get_password("Alice", "example.com");
  ASSERT_TRUE(expected.ok()) << expected.message();
  st.start();

  net::EventLoop loop;
  net::TcpTransport tcp(loop, "127.0.0.1", st.port(0));
  net::RpcClient rpc(tcp, 5'000'000);
  crypto::ChaChaDrbg rng(12);
  client::Browser browser(rpc.wire(), st.public_key(), rng, "browser");
  const auto wait_for = [&](const std::function<bool()>& pred) {
    const Micros deadline = loop.clock().now_us() + 10'000'000;
    while (!pred() && loop.clock().now_us() < deadline) loop.poll(20'000);
    return pred();
  };

  std::optional<Status> login;
  browser.login("Alice", "correct horse", [&](Status s) { login = s; });
  ASSERT_TRUE(wait_for([&] { return login.has_value(); }));
  ASSERT_TRUE(login->ok()) << login->message();

  // Back-to-back rounds: each one starts right after the previous one
  // finished, which is where a heartbeat-gated push waits longest.
  for (int round = 0; round < 5; ++round) {
    std::optional<Result<std::string>> password;
    const Micros start = loop.clock().now_us();
    browser.request_password("Alice", "example.com",
                             [&](Result<std::string> r) { password = r; });
    ASSERT_TRUE(wait_for([&] { return password.has_value(); }));
    const Micros took = loop.clock().now_us() - start;
    ASSERT_TRUE(password->ok()) << password->message();
    EXPECT_EQ(password->value(), expected.value());
    EXPECT_LT(took, 100'000) << "round " << round << " took " << took
                             << " us of a 500 ms heartbeat";
  }
  rpc.close();
  st.stop();
}

}  // namespace
}  // namespace amnesia
