// serve: the Amnesia server on a real TCP socket.
//
// The full server stack (routes, worker pool, secure channel, rendezvous,
// phone) runs inside the simulation. Attached to the event loop, the
// simulation keeps real time; a net::RpcListener serves the secure channel
// on net::TcpTransport so real clients reach it over loopback or the LAN.
// Three modes:
//
//   ./serve
//       Self-contained demo (and ctest smoke test): server plus a
//       wire-backed client::Browser in one process, ephemeral ports on
//       127.0.0.1. Runs the six-step flow of Fig. 1 — login, account
//       creation, bilateral password generation with the (simulated)
//       phone confirming — entirely over real TCP, then scrapes
//       GET /metrics over a second plain-HTTP connection.
//
//   ./serve --listen PORT [HTTP_PORT]
//       Long-running server. Provisions the demo user and prints the
//       pinned channel key (the self-signed certificate) for clients.
//
//   ./serve --connect HOST PORT KEY_HEX [USER] [MASTER_PASSWORD]
//       Standalone client: logs in and requests the demo password over
//       the network. KEY_HEX is the key --listen printed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>

#include "client/browser.h"
#include "common/bytes.h"
#include "crypto/drbg.h"
#include "eval/testbed.h"
#include "net/event_loop.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "websvc/http.h"
#include "websvc/stream.h"

using namespace amnesia;

namespace {

constexpr const char* kDemoUser = "alice";
constexpr const char* kDemoMasterPassword = "correct horse battery staple";
constexpr const char* kDemoAccountUser = "Alice";
constexpr const char* kDemoAccountDomain = "mail.google.com";

void check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "FAILED: %s: %s\n", what, s.message().c_str());
    std::exit(1);
  }
  std::printf("  ok: %s\n", what);
}

/// Polls the loop until the captured callback fires (all protocol work —
/// client, server, and simulation — happens inside poll()).
template <typename T>
class Waiter {
 public:
  explicit Waiter(net::EventLoop& loop) : loop_(loop) {}

  std::function<void(T)> capture() {
    return [this](T value) { result_ = std::make_unique<T>(std::move(value)); };
  }

  T wait(Micros timeout_us = 60'000'000) {
    const Micros deadline = loop_.clock().now_us() + timeout_us;
    while (!result_) {
      if (loop_.clock().now_us() >= deadline) {
        std::fprintf(stderr, "FAILED: operation timed out\n");
        std::exit(1);
      }
      loop_.poll(20'000);
    }
    return std::move(*result_);
  }

 private:
  net::EventLoop& loop_;
  std::unique_ptr<T> result_;
};

/// Provisions the demo account in-sim (signup, pairing, backup, one
/// website account) so TCP clients can log straight in.
std::unique_ptr<eval::Testbed> make_provisioned_testbed() {
  auto bed = std::make_unique<eval::Testbed>();
  if (Status s = bed->provision(kDemoUser, kDemoMasterPassword); !s.ok()) {
    std::fprintf(stderr, "FAILED: provision: %s\n", s.message().c_str());
    std::exit(1);
  }
  if (Status s = bed->add_account(kDemoAccountUser, kDemoAccountDomain);
      !s.ok()) {
    std::fprintf(stderr, "FAILED: add_account: %s\n", s.message().c_str());
    std::exit(1);
  }
  return bed;
}

/// Secure-channel RPC: every framed request is a wire envelope for the
/// server's channel terminator.
net::RpcPeer::Handler secure_handler(server::AmnesiaServer& server) {
  return std::bind_front(&securechan::SecureServer::handle_wire,
                         &server.secure());
}

/// Plain HTTP (no channel) straight into the server's routes — the
/// /metrics scrape port.
void serve_plain_http(net::Transport& transport,
                      server::AmnesiaServer& server) {
  transport.listen([&server](net::StreamPtr stream) {
    websvc::HttpStreamSession::attach(std::move(stream), server.http());
  });
}

/// True once `wire` holds a complete HTTP response (head + full body).
bool response_complete(const std::string& wire) {
  const std::size_t head_end = wire.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  const std::size_t cl = wire.find("Content-Length:");
  if (cl == std::string::npos || cl > head_end) return true;
  const std::size_t len =
      std::strtoul(wire.c_str() + cl + std::strlen("Content-Length:"), nullptr,
                   10);
  return wire.size() >= head_end + 4 + len;
}

/// Raw-socket GET against the server's plain-HTTP port (exactly what a
/// metrics scraper would do).
std::string scrape_metrics(net::EventLoop& loop, std::uint16_t http_port) {
  net::TcpTransport dial(loop, "127.0.0.1", http_port);
  net::StreamPtr stream;
  std::string wire;
  bool closed = false;
  dial.connect([&](Result<net::StreamPtr> r) {
    if (!r.ok()) {
      std::fprintf(stderr, "FAILED: metrics connect: %s\n",
                   r.message().c_str());
      std::exit(1);
    }
    stream = r.value();
    stream->set_handlers(
        {[&](ByteView chunk) {
           wire.append(reinterpret_cast<const char*>(chunk.data()),
                       chunk.size());
         },
         [&]() { closed = true; }});
    websvc::Request req;
    req.path = "/metrics";
    stream->send(websvc::serialize(req));
  });
  const Micros deadline = loop.clock().now_us() + 10'000'000;
  while (!response_complete(wire) && !closed) {
    if (loop.clock().now_us() >= deadline) {
      std::fprintf(stderr, "FAILED: metrics scrape timed out\n");
      std::exit(1);
    }
    loop.poll(20'000);
  }
  if (stream) stream->close();
  const websvc::Response resp = websvc::parse_response(to_bytes(wire));
  if (resp.status != 200) {
    std::fprintf(stderr, "FAILED: GET /metrics -> %d\n", resp.status);
    std::exit(1);
  }
  return resp.body;
}

int run_demo() {
  std::printf("== 1. Provision the demo user (in-simulation) ==\n");
  auto bed = make_provisioned_testbed();
  std::printf("  ok: %s paired and backed up, one account on %s\n", kDemoUser,
              kDemoAccountDomain);

  std::printf("\n== 2. Serve over real TCP (epoll event loop) ==\n");
  net::EventLoop loop;
  net::TcpTransport secure_tr(loop, "127.0.0.1", 0);
  net::TcpTransport http_tr(loop, "127.0.0.1", 0);
  secure_tr.set_metrics(&bed->server().metrics());
  net::RpcListener listener(secure_tr, secure_handler(bed->server()));
  serve_plain_http(http_tr, bed->server());
  const auto attachment = bed->sim().attach(loop);
  std::printf("  secure-channel RPC on 127.0.0.1:%u, /metrics on "
              "127.0.0.1:%u\n",
              secure_tr.local_port(), http_tr.local_port());

  std::printf("\n== 3. Six-step flow from a wire-backed browser ==\n");
  net::TcpTransport dial(loop, "127.0.0.1", secure_tr.local_port());
  net::RpcClient rpc(dial, 30'000'000);
  crypto::ChaChaDrbg rng(0x5e12e);
  client::Browser browser(rpc.wire(), bed->server().public_key(), rng,
                          "tcp-browser");
  {
    Waiter<Status> w(loop);
    browser.login(kDemoUser, kDemoMasterPassword, w.capture());
    check(w.wait(), "login over TCP");
  }
  {
    Waiter<Status> w(loop);
    browser.add_account("Bob", "www.yahoo.com", w.capture());
    check(w.wait(), "add account over TCP");
  }
  for (const auto& [username, domain] :
       {std::pair<std::string, std::string>{kDemoAccountUser,
                                            kDemoAccountDomain},
        {"Bob", "www.yahoo.com"}}) {
    Waiter<Result<std::string>> w(loop);
    browser.request_password(username, domain, w.capture());
    const Result<std::string> password = w.wait();
    if (!password.ok()) {
      std::fprintf(stderr, "FAILED: password for %s@%s: %s\n",
                   username.c_str(), domain.c_str(),
                   password.message().c_str());
      return 1;
    }
    std::printf("  %-8s %-18s -> %s   (phone confirmed in-sim)\n",
                username.c_str(), domain.c_str(), password.value().c_str());
  }

  std::printf("\n== 4. GET /metrics over plain HTTP ==\n");
  const std::string metrics = scrape_metrics(loop, http_tr.local_port());
  std::istringstream lines(metrics);
  std::string line;
  while (std::getline(lines, line)) {
    // Snapshot lines read "counter net.bytes_rx 4242".
    const bool scalar = line.rfind("counter ", 0) == 0 ||
                        line.rfind("gauge ", 0) == 0;
    if (scalar && (line.find(" net.") != std::string::npos ||
                   line.find(" http.") != std::string::npos)) {
      std::printf("  %s\n", line.c_str());
    }
  }

  rpc.close();
  std::printf("\nDone: identical protocol bytes, real sockets underneath.\n");
  return 0;
}

int run_listen(std::uint16_t port, std::uint16_t http_port) {
  auto bed = make_provisioned_testbed();
  net::EventLoop loop;
  net::TcpTransport secure_tr(loop, "0.0.0.0", port);
  secure_tr.set_metrics(&bed->server().metrics());
  std::unique_ptr<net::TcpTransport> http_tr;
  if (http_port != 0) {
    http_tr = std::make_unique<net::TcpTransport>(loop, "0.0.0.0", http_port);
    serve_plain_http(*http_tr, bed->server());
  }
  net::RpcListener listener(secure_tr, secure_handler(bed->server()));
  const auto attachment = bed->sim().attach(loop);

  std::printf("amnesia-server listening\n");
  std::printf("  secure-channel RPC : 0.0.0.0:%u\n", secure_tr.local_port());
  if (http_tr) {
    std::printf("  plain HTTP /metrics: 0.0.0.0:%u\n", http_tr->local_port());
  }
  std::printf("  pinned channel key : %s\n",
              hex_encode(bed->server().public_key()).c_str());
  std::printf("  demo credentials   : %s / \"%s\" (account %s@%s)\n",
              kDemoUser, kDemoMasterPassword, kDemoAccountUser,
              kDemoAccountDomain);
  std::printf("connect with:\n  serve --connect <host> %u %s\n",
              secure_tr.local_port(),
              hex_encode(bed->server().public_key()).c_str());
  // The banner (key + credentials) must reach pipes/log files before the
  // loop blocks; stdout is fully buffered when not a terminal.
  std::fflush(stdout);
  loop.run();
  return 0;
}

int run_connect(const std::string& host, std::uint16_t port,
                const std::string& key_hex, const std::string& user,
                const std::string& master_password) {
  const Bytes key_bytes = hex_decode(key_hex);
  if (key_bytes.size() != crypto::kX25519KeySize) {
    std::fprintf(stderr, "bad key: want %zu hex bytes, got %zu\n",
                 crypto::kX25519KeySize, key_bytes.size());
    return 2;
  }
  crypto::X25519Key server_key{};
  std::copy(key_bytes.begin(), key_bytes.end(), server_key.begin());

  net::EventLoop loop;
  net::TcpTransport dial(loop, host, port);
  net::RpcClient rpc(dial, 30'000'000);
  crypto::ChaChaDrbg rng(static_cast<std::uint64_t>(std::random_device{}()));
  client::Browser browser(rpc.wire(), server_key, rng, "remote-browser");

  {
    Waiter<Status> w(loop);
    browser.login(user, master_password, w.capture());
    check(w.wait(), "login");
  }
  Waiter<Result<std::string>> w(loop);
  browser.request_password(kDemoAccountUser, kDemoAccountDomain, w.capture());
  const Result<std::string> password = w.wait();
  if (!password.ok()) {
    std::fprintf(stderr, "FAILED: %s\n", password.message().c_str());
    return 1;
  }
  std::printf("%s@%s -> %s\n", kDemoAccountUser, kDemoAccountDomain,
              password.value().c_str());
  rpc.close();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return run_demo();
  const std::string mode = argv[1];
  if (mode == "--listen" && (argc == 3 || argc == 4)) {
    return run_listen(static_cast<std::uint16_t>(std::atoi(argv[2])),
                      argc == 4
                          ? static_cast<std::uint16_t>(std::atoi(argv[3]))
                          : 0);
  }
  if (mode == "--connect" && (argc == 5 || argc == 7)) {
    return run_connect(argv[2],
                       static_cast<std::uint16_t>(std::atoi(argv[3])), argv[4],
                       argc == 7 ? argv[5] : kDemoUser,
                       argc == 7 ? argv[6] : kDemoMasterPassword);
  }
  std::fprintf(stderr,
               "usage: %s\n"
               "       %s --listen PORT [HTTP_PORT]\n"
               "       %s --connect HOST PORT KEY_HEX [USER] [MP]\n",
               argv[0], argv[0], argv[0]);
  return 2;
}
