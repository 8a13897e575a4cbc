// Conformance: the full Amnesia six-step flow (login, account creation,
// bilateral password generation with phone confirmation) runs through
// the same RPC listener + framing + secure-channel code over BOTH
// transport backends:
//
//   - net::TcpTransport on a real loopback socket (epoll event loop; the
//     simulation is attached to it and keeps real time by itself), and
//   - simnet::SimStreamTransport over simulated datagrams (simulation not
//     attached; the test steps virtual time).
//
// The protocol bytes above the ByteStream are identical, so both
// backends must accept the same scenario and — because every RNG is
// seeded identically and passwords derive only from (seed, K_p) — must
// generate the *same* password.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "client/browser.h"
#include "crypto/drbg.h"
#include "eval/testbed.h"
#include "net/event_loop.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "simnet/stream.h"

namespace amnesia {
namespace {

constexpr const char* kUser = "carol";
constexpr const char* kMasterPassword = "one master password";
constexpr const char* kAccountUser = "Carol";
constexpr const char* kAccountDomain = "mail.google.com";

std::unique_ptr<eval::Testbed> provisioned_bed() {
  eval::TestbedConfig config;
  config.seed = 7;
  auto bed = std::make_unique<eval::Testbed>(config);
  EXPECT_TRUE(bed->provision(kUser, kMasterPassword).ok());
  EXPECT_TRUE(bed->add_account(kAccountUser, kAccountDomain).ok());
  return bed;
}

net::RpcPeer::Handler secure_handler(eval::Testbed& bed) {
  return std::bind_front(&securechan::SecureServer::handle_wire,
                         &bed.server().secure());
}

struct FlowResult {
  Status login = Status(Err::kInternal, "never ran");
  Status add_account = Status(Err::kInternal, "never ran");
  Result<std::string> password{Err::kInternal, "never ran"};
};

/// The six-step scenario, identical for both backends; `await` runs the
/// backend's event source until the captured callback fires.
template <typename Await>
FlowResult run_flow(client::Browser& browser, const Await& await) {
  FlowResult result;
  await([&](auto done) {
    browser.login(kUser, kMasterPassword,
                  [&, done](Status s) { result.login = s; done(); });
  });
  await([&](auto done) {
    browser.add_account("Bob", "www.yahoo.com",
                        [&, done](Status s) { result.add_account = s; done(); });
  });
  await([&](auto done) {
    browser.request_password(kAccountUser, kAccountDomain,
                             [&, done](Result<std::string> r) {
                               result.password = std::move(r);
                               done();
                             });
  });
  return result;
}

FlowResult run_over_tcp(std::string* password_out) {
  auto bed = provisioned_bed();
  net::EventLoop loop;
  net::TcpTransport secure_tr(loop, "127.0.0.1", 0);
  net::RpcListener listener(secure_tr, secure_handler(*bed));
  const auto attachment = bed->sim().attach(loop);

  net::TcpTransport dial(loop, "127.0.0.1", secure_tr.local_port());
  net::RpcClient rpc(dial, 30'000'000);
  crypto::ChaChaDrbg rng(99);
  client::Browser browser(rpc.wire(), bed->server().public_key(), rng,
                          "tcp-client");

  const auto await = [&](auto start) {
    bool fired = false;
    start([&fired] { fired = true; });
    const Micros deadline = loop.clock().now_us() + 60'000'000;
    while (!fired) {
      ASSERT_LT(loop.clock().now_us(), deadline) << "TCP flow stalled";
      loop.poll(20'000);
    }
  };
  FlowResult result = run_flow(browser, await);
  if (password_out && result.password.ok()) {
    *password_out = result.password.value();
  }
  rpc.close();
  return result;
}

FlowResult run_over_simstream(std::string* password_out) {
  auto bed = provisioned_bed();
  simnet::SimStreamTransport secure_tr(bed->net(), "server-rpc");
  // Same listener code; its executor IS the simulation, which stays
  // unattached: the test drives virtual time.
  net::RpcListener listener(secure_tr, secure_handler(*bed));

  simnet::SimStreamTransport dial(bed->net(), "wire-client", "server-rpc");
  net::RpcClient rpc(dial, 30'000'000);
  crypto::ChaChaDrbg rng(99);
  client::Browser browser(rpc.wire(), bed->server().public_key(), rng,
                          "wire-client");

  const auto await = [&](auto start) {
    bool fired = false;
    start([&fired] { fired = true; });
    std::size_t steps = 0;
    while (!fired && bed->sim().step()) {
      ASSERT_LT(++steps, 10'000'000u) << "sim flow stalled";
    }
    ASSERT_TRUE(fired) << "simulation drained without completing the call";
  };
  FlowResult result = run_flow(browser, await);
  if (password_out && result.password.ok()) {
    *password_out = result.password.value();
  }
  rpc.close();
  return result;
}

TEST(ServeConformance, SixStepFlowOverRealTcp) {
  std::string password;
  const FlowResult r = run_over_tcp(&password);
  EXPECT_TRUE(r.login.ok()) << r.login.message();
  EXPECT_TRUE(r.add_account.ok()) << r.add_account.message();
  ASSERT_TRUE(r.password.ok()) << r.password.message();
  EXPECT_EQ(password.size(), 32u) << "default policy emits 32 chars";
}

TEST(ServeConformance, SixStepFlowOverSimStream) {
  std::string password;
  const FlowResult r = run_over_simstream(&password);
  EXPECT_TRUE(r.login.ok()) << r.login.message();
  EXPECT_TRUE(r.add_account.ok()) << r.add_account.message();
  ASSERT_TRUE(r.password.ok()) << r.password.message();
  EXPECT_EQ(password.size(), 32u);
}

TEST(ServeConformance, BackendsGenerateIdenticalPassword) {
  std::string over_tcp, over_sim;
  ASSERT_TRUE(run_over_tcp(&over_tcp).password.ok());
  ASSERT_TRUE(run_over_simstream(&over_sim).password.ok());
  EXPECT_EQ(over_tcp, over_sim)
      << "identically-seeded testbeds must generate the same password "
         "regardless of transport backend";
}

}  // namespace
}  // namespace amnesia
