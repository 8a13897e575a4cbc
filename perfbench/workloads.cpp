#include "workloads.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "client/browser.h"
#include "crypto/drbg.h"
#include "deployment.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "scrape.h"
#include "stats.h"
#include "websvc/client.h"
#include "websvc/http.h"
#include "websvc/pool.h"

namespace perfbench {

using namespace amnesia;

namespace {

constexpr std::size_t kUsers = 64;
constexpr std::size_t kConnections = 4;
// Accounts every user carries for the write/read probe of the workloads
// whose own traffic does not write.
constexpr std::size_t kProbeAccounts = 4;
// Accounts per user that password_round draws from.
constexpr std::size_t kRoundAccounts = 8;
constexpr std::size_t kChurnAccounts = 50;
// Zipf exponent of user visits and of a user's accounts (the skewed
// rehearsal schedule of "Naturally Rehearsing Passwords").
constexpr double kZipfS = 1.0;
// password_round's Poisson arrival rate: about half the closed-loop
// capacity of its 4-connection deployment on a 4-core Xeon (README.md).
constexpr double kRoundRatePerS = 150.0;
// password_round's warm-up rate: faster, to keep set-up short, yet well
// below the rate at which rounds fill the server's worker pool.
constexpr double kWarmupRatePerS = 300.0;
// Length of the write/read probe (half writes, half reads): long enough
// to average over the host's multi-second speed swings.
constexpr double kProbeSeconds = 5.0;

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

/// On-CPU time of the given threads, from /proc/self/task/<tid>/schedstat.
double threads_cpu_s(const std::vector<pid_t>& tids) {
  double total = 0;
  for (const pid_t tid : tids) {
    std::ifstream in("/proc/self/task/" + std::to_string(tid) +
                     "/schedstat");
    unsigned long long run_ns = 0;
    if (!(in >> run_ns)) {
      throw std::runtime_error("cannot read schedstat of thread " +
                               std::to_string(tid));
    }
    total += static_cast<double>(run_ns) / 1e9;
  }
  return total;
}

std::int64_t dir_bytes(const std::string& dir) {
  if (dir.empty()) return 0;
  std::int64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += static_cast<std::int64_t>(e.file_size());
  }
  return total;
}

std::string hex_token(Rng& rng, std::size_t chars) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < chars; ++i) out += kHex[rng.below(16)];
  return out;
}

/// Seeded user population: names, master passwords and account sets.
/// Names are drawn until every one of `shards` shards owns an equal share,
/// so a workload's throughput does not hang on how one seed's 64 names
/// happen to hash.
std::vector<UserSpec> make_users(Rng& rng, std::size_t accounts,
                                 std::size_t shards = 1) {
  std::vector<UserSpec> users;
  std::vector<std::size_t> owned(shards, 0);
  for (std::size_t i = 0; i < kUsers; ++i) {
    UserSpec u;
    do {
      u.name = "user-" + hex_token(rng, 8) + "-" + std::to_string(i);
    } while (owned[owner_shard(u.name, shards)] == kUsers / shards);
    ++owned[owner_shard(u.name, shards)];
    u.master_password = "mp-" + hex_token(rng, 16);
    for (std::size_t k = 0; k < accounts; ++k) {
      u.accounts.emplace_back("acct" + std::to_string(k),
                              "site-" + hex_token(rng, 6) + ".example");
    }
    for (std::size_t k = 0; k < kProbeAccounts; ++k) {
      u.accounts.emplace_back("probe" + std::to_string(k),
                              "probe-" + hex_token(rng, 6) + ".example");
    }
    users.push_back(std::move(u));
  }
  return users;
}

/// The GET /accounts body the server must return for `u`, as sorted lines.
std::vector<std::string> expected_listing(const UserSpec& u) {
  std::vector<std::string> lines;
  for (const auto& [username, domain] : u.accounts) {
    lines.push_back(username + "\t" + domain);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::vector<std::string> sorted_lines(const std::string& body) {
  std::vector<std::string> lines;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

enum class Kind { kOther, kWrite, kRead };
using Done = std::function<void(bool ok, const std::string& error)>;

/// One operation drive() issues: its class, its span name (a string
/// literal) and the call that starts it.
struct Op {
  Kind kind = Kind::kOther;
  const char* name = "op";
  std::function<void(Done)> run;
};

/// What drive() runs: a closed loop keeping kConnections operations in
/// flight, or an open loop with Poisson arrivals.
struct DriveSpec {
  double seconds = 0;       // stop issuing after this (0 = no limit)
  std::size_t max_ops = 0;  // or after this many (0 = no limit)
  double rate_per_s = 0;    // > 0: open loop at this rate
  std::uint64_t arrival_seed = 0;
};

// ---------------------------------------------------------------------------

class Base : public Workload {
 public:
  Base(std::uint64_t seed, std::string work_dir, net::EventLoop& loop,
       std::string request_path)
      : seed_(seed),
        work_dir_(std::move(work_dir)),
        loop_(loop),
        request_path_(std::move(request_path)) {}

  void teardown() override {
    pool_.reset();  // fails anything in flight into live clients
    clients_.clear();
    scraper_.reset();
    drop_clients();
    dep_.reset();
    if (!spec_.db_dir.empty()) {
      std::filesystem::remove_all(spec_.db_dir);
      spec_.db_dir.clear();
    }
  }

  ReplayInputs replay_inputs() const override {
    ReplayInputs in;
    in.persistent = persistent_;
    in.users = users_.size();
    in.accounts_per_user = users_.front().accounts.size();
    in.user = users_.front().name;
    in.username = users_.front().accounts.front().first;
    in.domain = users_.front().accounts.front().second;
    in.request_path = request_path_;
    if (request_path_ == "/login") {
      in.request_form = {{"user", in.user},
                         {"master_password", users_.front().master_password}};
    } else {
      in.request_form = {{"username", in.username}, {"domain", in.domain}};
    }
    if (!clients_.empty()) {
      const auto& jar = clients_.front()->cookies();
      if (const auto it = jar.find("session"); it != jar.end()) {
        in.cookie = it->second;
      }
    }
    return in;
  }

 protected:
  /// Workload-specific client teardown (login_cold's browsers).
  virtual void drop_clients() {}

  void start_deployment() {
    teardown();
    if (persistent_) {
      spec_.db_dir = work_dir_ + "/db-" + std::to_string(++setups_);
      std::filesystem::create_directories(spec_.db_dir);
    }
    dep_ = std::make_unique<Deployment>(spec_, users_);
    scraper_ = std::make_unique<Scraper>(loop_, dep_->scrape_ports(),
                                         dep_->public_key());
    scraper_->scrape();  // opens the scrape channel outside any window
  }

  /// One HttpClient (cookie jar) per user over a shared 4-connection
  /// pool; every user logs in once.
  void open_pool_and_login() {
    pool_rng_ = std::make_unique<crypto::ChaChaDrbg>(seed_ * 31 + 7);
    websvc::ConnectionPoolConfig pc;
    pc.max_connections = kConnections;
    pc.metrics = &client_metrics_;
    pool_ = std::make_unique<websvc::ConnectionPool>(
        loop_, "127.0.0.1", dep_->port(), dep_->public_key(), *pool_rng_,
        pc);
    clients_.clear();
    for (std::size_t i = 0; i < users_.size(); ++i) {
      clients_.push_back(
          std::make_unique<websvc::HttpClient>(traced(pool_->transport())));
    }
    std::size_t next = 0;
    run_ops(users_.size(), [&](std::size_t) {
      const std::size_t i = next++;
      return Op{Kind::kOther, "op.login", [this, i](Done done) {
                  clients_[i]->post_form(
                      "/login",
                      {{"user", users_[i].name},
                       {"master_password", users_[i].master_password}},
                      [done](Result<websvc::Response> r) {
                        done(r.ok() && r.value().status == 200,
                             r.ok() ? "login status " +
                                          std::to_string(r.value().status)
                                    : r.message());
                      });
                }};
    });
  }

  /// Untimed closed loop of exactly `ops` operations; throws on failure.
  void run_ops(std::size_t ops, const std::function<Op(std::size_t)>& next) {
    DriveSpec d;
    d.max_ops = ops;
    Window w;
    drive(d, next, w);
    if (w.failed != 0) {
      throw std::runtime_error("untimed operation failed: " +
                               (w.errors.empty() ? "?" : w.errors.front()));
    }
  }

  /// A ByteTransport that counts exchanges and spans each request.
  websvc::ByteTransport traced(websvc::ByteTransport inner) {
    return [this, inner = std::move(inner)](
               Bytes bytes, std::function<void(Result<Bytes>)> cb) {
      ++tcp_exchanges_;
      const SpanLog::Id id = spans_->begin("http.request", ambient_);
      inner(std::move(bytes),
            [this, id, cb = std::move(cb)](Result<Bytes> r) {
              spans_->end(id);
              cb(std::move(r));
            });
    };
  }

  Op rotate_op(std::size_t user, std::size_t account) {
    return Op{Kind::kWrite, "op.rotate", [this, user, account](Done done) {
                const auto& [username, domain] =
                    users_[user].accounts[account];
                clients_[user]->post_form(
                    "/accounts/rotate",
                    {{"username", username}, {"domain", domain}},
                    [done](Result<websvc::Response> r) {
                      done(r.ok() && r.value().status == 200,
                           r.ok() ? "rotate status " +
                                        std::to_string(r.value().status)
                                  : r.message());
                    });
              }};
  }

  Op list_op(std::size_t user) {
    return Op{Kind::kRead, "op.list", [this, user](Done done) {
                clients_[user]->get(
                    "/accounts", [this, user, done](Result<websvc::Response> r) {
                      if (!r.ok() || r.value().status != 200) {
                        done(false, r.ok() ? "list status " +
                                                 std::to_string(
                                                     r.value().status)
                                           : r.message());
                        return;
                      }
                      const bool same = sorted_lines(r.value().body) ==
                                        expected_listing(users_[user]);
                      done(same, "account list differs from the expected");
                    });
              }};
  }

  /// The closed-loop rotate/list probe on the probe accounts.
  Window probe_writes_reads() {
    if (!pool_) open_pool_and_login();
    Rng rng(seed_ ^ 0x9b0be5);
    const std::size_t first_probe = users_.front().accounts.size() -
                                    kProbeAccounts;
    DriveSpec d;
    d.seconds = kProbeSeconds;
    Window probe;
    std::size_t n = 0;
    drive(d,
          [&](std::size_t) {
            const std::size_t user = rng.below(users_.size());
            return (n++ % 2 == 0)
                       ? rotate_op(user, first_probe +
                                             rng.below(kProbeAccounts))
                       : list_op(user);
          },
          probe);
    return probe;
  }

  /// Scrapes and reads the clocks around a timed drive.
  Window timed(const DriveSpec& d, SpanLog& spans,
               const std::function<Op(std::size_t)>& next) {
    Window w;
    w.before = scraper_->scrape();
    const std::uint64_t reuses0 =
        client_metrics_.counter("websvc.pool.reuses").value();
    const std::uint64_t dials0 =
        client_metrics_.counter("websvc.pool.dials").value();
    const std::size_t exchanges0 = tcp_exchanges_;
    const std::int64_t db0 = dir_bytes(spec_.db_dir);
    const double cpu0 = process_cpu_s();
    const double hcpu0 = thread_cpu_s();
    const double rcpu0 = threads_cpu_s(dep_->reactor_tids());
    {
      spans_ = &spans;
      struct Restore {
        SpanLog*& current;
        SpanLog* off;
        ~Restore() { current = off; }
      } restore{spans_, &off_};
      drive(d, next, w);
    }
    w.reactor_cpu_s = threads_cpu_s(dep_->reactor_tids()) - rcpu0;
    w.reactors = dep_->reactor_tids().size();
    w.harness_cpu_s = thread_cpu_s() - hcpu0;
    w.cpu_s = process_cpu_s() - cpu0;
    w.db_bytes = dir_bytes(spec_.db_dir) - db0;
    w.tcp_exchanges = tcp_exchanges_ - exchanges0;
    w.pool_reuses =
        client_metrics_.counter("websvc.pool.reuses").value() - reuses0;
    w.pool_dials =
        client_metrics_.counter("websvc.pool.dials").value() - dials0;
    w.after = scraper_->scrape();
    return w;
  }

  /// Issues operations as `d` says and drains every issued
  /// one before returning.
  void drive(const DriveSpec& d, const std::function<Op(std::size_t)>& next,
             Window& w) {
    const bool open = d.rate_per_s > 0;
    Rng arrivals(d.arrival_seed);
    const std::int64_t t0 = now_ns();
    const std::int64_t end =
        d.seconds > 0 ? t0 + static_cast<std::int64_t>(d.seconds * 1e9)
                      : INT64_MAX;
    const auto gap_ns = [&] {
      return static_cast<std::int64_t>(
          poisson_gap_us(arrivals, d.rate_per_s) * 1e3);
    };
    std::int64_t next_arrival = open ? t0 + gap_ns() : 0;
    std::int64_t last_done = t0;
    std::size_t in_flight = 0, issued = 0;
    std::vector<std::size_t> ready;
    if (!open) {
      ready.resize(kConnections);
      std::iota(ready.begin(), ready.end(), std::size_t{0});
    }
    const auto may_issue = [&](std::int64_t now) {
      return now < end && (d.max_ops == 0 || issued < d.max_ops);
    };
    // Operations still in flight when drive() unwinds (a failed warm-up,
    // a stalled window) complete into this flag instead of a dead frame.
    auto alive = std::make_shared<bool>(true);
    struct Expire {
      std::shared_ptr<bool> flag;
      ~Expire() { *flag = false; }
    } expire{alive};
    const auto issue = [&](std::size_t slot, std::int64_t intended) {
      Op op = next(slot);
      const std::int64_t start = now_ns();
      if (open) {
        w.send_lag_us.push_back(static_cast<double>(start - intended) / 1e3);
      }
      ++issued;
      ++w.attempted;
      ++in_flight;
      w.backlog_max = std::max(w.backlog_max, in_flight);
      const SpanLog::Id span = spans_->begin(op.name);
      ambient_ = span;
      const Kind kind = op.kind;
      op.run([&, alive, slot, intended, span, kind](
                 bool ok, const std::string& error) {
        if (!*alive) return;
        const std::int64_t done_at = now_ns();
        spans_->end(span);
        last_done = std::max(last_done, done_at);
        --in_flight;
        if (!open) ready.push_back(slot);
        if (!ok) {
          ++w.failed;
          if (w.errors.size() < 5) w.errors.push_back(error);
          return;
        }
        const double ms = static_cast<double>(done_at - intended) / 1e6;
        w.lat_ms.push_back(ms);
        if (kind == Kind::kWrite) {
          ++w.writes;
          w.write_ms.push_back(ms);
        } else if (kind == Kind::kRead) {
          ++w.reads;
          w.read_ms.push_back(ms);
        }
      });
      ambient_ = 0;
    };
    // Past the pool's RPC timeout and the server's phone-wait 504, so
    // every operation has answered or failed by then.
    const Micros drain_deadline_us = 40'000'000;
    const std::int64_t hard_stop =
        (end == INT64_MAX ? t0 : end) + drain_deadline_us * 1000;
    while (true) {
      std::int64_t now = now_ns();
      if (open) {
        while (next_arrival <= now && may_issue(next_arrival)) {
          issue(issued, next_arrival);
          next_arrival += gap_ns();
        }
      } else {
        std::vector<std::size_t> batch;
        batch.swap(ready);
        for (const std::size_t slot : batch) {
          if (may_issue(now_ns())) {
            issue(slot, now_ns());
          }
        }
      }
      now = now_ns();
      const bool issuing = open ? may_issue(next_arrival) : may_issue(now);
      if (!issuing && in_flight == 0) break;
      if (now > hard_stop) {
        throw std::runtime_error(
            "operations stalled: " + std::to_string(in_flight) + " of " +
            std::to_string(issued) + " still in flight");
      }
      Micros wait_us = 1'000;
      if (open && issuing) {
        wait_us = std::max<std::int64_t>(0, (next_arrival - now) / 1000);
      }
      loop_.poll(wait_us);
    }
    w.wall_s = static_cast<double>(last_done - t0) / 1e9;
  }

  std::uint64_t seed_;
  std::string work_dir_;
  net::EventLoop& loop_;
  DeploymentSpec spec_;
  std::vector<UserSpec> users_;
  std::unique_ptr<Deployment> dep_;
  std::unique_ptr<Scraper> scraper_;
  obs::MetricsRegistry client_metrics_;  // the harness pool's counters
  std::unique_ptr<crypto::ChaChaDrbg> pool_rng_;
  std::vector<std::unique_ptr<websvc::HttpClient>> clients_;
  // Declared after the clients it calls back into, so it goes first.
  std::unique_ptr<websvc::ConnectionPool> pool_;
  SpanLog off_{false};
  SpanLog* spans_ = &off_;
  SpanLog::Id ambient_ = 0;  // the operation span a call is made under
  std::size_t tcp_exchanges_ = 0;
  int setups_ = 0;
  bool persistent_ = false;  // storage in a fresh directory per setup
  std::string request_path_;  // the workload's main request
};

// ---------------------------------------------------------------------------

/// Closed loop, 4 connections, 2 shards: every operation forgets its
/// ticket, resets the channel and logs in — a full X25519 handshake plus
/// a PBKDF2-10k verify, with about half the logins crossing the shard
/// mailbox.
class LoginCold : public Base {
 public:
  LoginCold(std::uint64_t seed, std::string work_dir, net::EventLoop& loop)
      : Base(seed, std::move(work_dir), loop, "/login") {}

  void setup() override {
    Rng rng(seed_);
    spec_.shards = 2;
    users_ = make_users(rng, 0, spec_.shards);
    spec_.seed = seed_;
    start_deployment();
    for (std::size_t i = 0; i < kConnections; ++i) {
      auto b = std::make_unique<BrowserClient>();
      b->dial = std::make_unique<net::TcpTransport>(loop_, "127.0.0.1",
                                                    dep_->port());
      b->rpc = std::make_unique<net::RpcClient>(*b->dial, 30'000'000);
      b->rng = std::make_unique<crypto::ChaChaDrbg>(seed_ * 131 + i);
      b->browser = std::make_unique<client::Browser>(
          traced_wire(i, b->rpc->wire()), dep_->public_key(), *b->rng,
          "bench-browser-" + std::to_string(i));
      browsers_.push_back(std::move(b));
    }
    // Untimed warm-up: one login per connection dials TCP and fills the
    // server's caches; the window's logins all handshake from scratch.
    run_ops(kConnections, [this](std::size_t slot) { return login(slot); });
  }

  Window run_window(double seconds, SpanLog& spans) override {
    DriveSpec d;
    d.seconds = seconds;
    return timed(d, spans, [this](std::size_t slot) { return login(slot); });
  }

  Window write_read_probe(const Window&) override {
    return probe_writes_reads();
  }

  void check(const Window& w,
             std::vector<std::string>& failures) const override {
    const std::uint64_t ops = w.attempted;
    const auto expect = [&](const char* name, std::uint64_t want) {
      const std::uint64_t got = counter_delta(w.before, w.after, name);
      if (got != want) {
        failures.push_back(std::string(name) + " delta " +
                           std::to_string(got) + " != " +
                           std::to_string(want));
      }
    };
    expect("securechan.handshakes", ops);
    expect("securechan.resumptions", 0);
    expect("crypto.pbkdf2_calls", ops);
  }

 private:
  // Destroyed bottom-up: closing the RPC client fails anything in flight
  // into a still-live browser, and the dial outlives its RPC client.
  struct BrowserClient {
    std::unique_ptr<net::TcpTransport> dial;
    std::unique_ptr<crypto::ChaChaDrbg> rng;
    std::unique_ptr<client::Browser> browser;
    std::unique_ptr<net::RpcClient> rpc;
  };

  void drop_clients() override { browsers_.clear(); }

  /// The browser's wire, spanned per secure-channel envelope under the
  /// connection's current operation.
  securechan::SecureClient::WireFn traced_wire(
      std::size_t slot, securechan::SecureClient::WireFn inner) {
    slot_op_.resize(std::max(slot_op_.size(), slot + 1));
    return [this, slot, inner = std::move(inner)](
               Bytes env, std::function<void(Result<Bytes>)> cb) {
      ++tcp_exchanges_;
      const char* name = "wire.record";
      if (!env.empty() && env[0] == 0x01) name = "wire.handshake";
      if (!env.empty() && env[0] == 0x04) name = "wire.resume";
      const SpanLog::Id id = spans_->begin(name, slot_op_[slot]);
      inner(std::move(env), [this, id, cb = std::move(cb)](Result<Bytes> r) {
        spans_->end(id);
        cb(std::move(r));
      });
    };
  }

  /// Users in round-robin order, reshuffled every cycle: a fixed order
  /// would repeat one seed's pattern of shard owners for the whole window
  /// and move throughput by which shard the 4 in-flight logins land on.
  Op login(std::size_t slot) {
    if (next_user_ == order_.size()) {
      order_.resize(users_.size());
      std::iota(order_.begin(), order_.end(), std::size_t{0});
      for (std::size_t i = order_.size() - 1; i > 0; --i) {
        std::swap(order_[i], order_[order_rng_.below(i + 1)]);
      }
      next_user_ = 0;
    }
    const std::size_t user = order_[next_user_++];
    return Op{Kind::kOther, "op.login", [this, slot, user](Done done) {
                slot_op_[slot] = ambient_;
                client::Browser& b = *browsers_[slot]->browser;
                b.channel().forget_ticket();
                b.channel().reset();
                b.login(users_[user].name, users_[user].master_password,
                        [done](Status s) {
                          done(s.ok(), s.ok() ? "" : s.message());
                        });
              }};
  }

  std::vector<std::unique_ptr<BrowserClient>> browsers_;
  std::vector<SpanLog::Id> slot_op_;
  Rng order_rng_{seed_ ^ 0x0dde};
  std::vector<std::size_t> order_;
  std::size_t next_user_ = 0;
};

// ---------------------------------------------------------------------------

/// Open loop at a fixed Poisson rate against a 2-replica cluster with the
/// semi-sync barrier: each arrival draws a user and one of their accounts
/// (both Zipf) and runs the paper's bilateral round, checked against the
/// password the warm-up recorded.
class PasswordRound : public Base {
 public:
  PasswordRound(std::uint64_t seed, std::string work_dir,
                net::EventLoop& loop)
      : Base(seed, std::move(work_dir), loop, "/password/request"),
        user_zipf_(kUsers, kZipfS),
        account_zipf_(kRoundAccounts, kZipfS) {}

  void setup() override {
    Rng rng(seed_);
    users_ = make_users(rng, kRoundAccounts);
    // Which user is most popular is itself drawn from the seed.
    rank_.resize(kUsers);
    std::iota(rank_.begin(), rank_.end(), std::size_t{0});
    for (std::size_t i = kUsers - 1; i > 0; --i) {
      std::swap(rank_[i], rank_[rng.below(i + 1)]);
    }
    spec_.replicas = 2;
    spec_.seed = seed_;
    start_deployment();
    open_pool_and_login();
    // Untimed warm-up: one round per (user, account) records the ground
    // truth every timed round is checked against.
    truth_.assign(kUsers, std::vector<std::string>(kRoundAccounts));
    std::size_t n = 0;
    DriveSpec d;
    d.max_ops = kUsers * kRoundAccounts;
    d.rate_per_s = kWarmupRatePerS;
    d.arrival_seed = seed_ ^ 0x3a3a;
    Window w;
    drive(d, [this, &n](std::size_t) {
      const std::size_t i = n++;
      return round(i % kUsers, i / kUsers, true);
    }, w);
    if (w.failed != 0) {
      throw std::runtime_error("warm-up round failed: " +
                               (w.errors.empty() ? "?" : w.errors.front()));
    }
  }

  Window run_window(double seconds, SpanLog& spans) override {
    Rng draws(seed_ ^ 0xd1a9);
    DriveSpec d;
    d.seconds = seconds;
    d.rate_per_s = kRoundRatePerS;
    d.arrival_seed = seed_ ^ 0xa771;
    return timed(d, spans, [this, &draws](std::size_t) {
      const std::size_t user = rank_[user_zipf_.draw(draws)];
      return round(user, account_zipf_.draw(draws), false);
    });
  }

  Window write_read_probe(const Window&) override {
    return probe_writes_reads();
  }

  void check(const Window& w,
             std::vector<std::string>& failures) const override {
    const std::uint64_t timeouts =
        counter_delta(w.before, w.after, "cluster.barrier_timeouts");
    if (timeouts != 0) {
      failures.push_back("cluster.barrier_timeouts delta " +
                         std::to_string(timeouts) + " != 0");
    }
  }

 private:
  Op round(std::size_t user, std::size_t account, bool record) {
    return Op{Kind::kOther, "op.password", [this, user, account,
                                            record](Done done) {
                const auto& [username, domain] =
                    users_[user].accounts[account];
                clients_[user]->post_form(
                    "/password/request",
                    {{"username", username}, {"domain", domain}},
                    [this, user, account, record,
                     done](Result<websvc::Response> r) {
                      if (!r.ok() || r.value().status != 200) {
                        done(false, r.ok() ? "round status " +
                                                 std::to_string(
                                                     r.value().status)
                                           : r.message());
                        return;
                      }
                      const auto form = r.value().form();
                      const auto it = form.find("password");
                      if (it == form.end() || it->second.empty()) {
                        done(false, "round returned no password");
                        return;
                      }
                      std::string& truth = truth_[user][account];
                      if (record) truth = it->second;
                      done(it->second == truth,
                           "password differs from its warm-up value");
                    });
              }};
  }

  Zipf user_zipf_;
  Zipf account_zipf_;
  std::vector<std::size_t> rank_;
  std::vector<std::vector<std::string>> truth_;
};

// ---------------------------------------------------------------------------

/// Closed loop, 4 pooled connections, 1 shard on persistent storage: half
/// account-seed rotations (each a journaled, fsynced commit), half
/// account-list reads checked against the expected list.
class AccountChurn : public Base {
 public:
  AccountChurn(std::uint64_t seed, std::string work_dir,
               net::EventLoop& loop)
      : Base(seed, std::move(work_dir), loop, "/accounts/rotate"),
        user_zipf_(kUsers, kZipfS),
        account_zipf_(kChurnAccounts, kZipfS) {}

  void setup() override {
    Rng rng(seed_);
    users_ = make_users(rng, kChurnAccounts);
    spec_.shards = 1;
    spec_.seed = seed_;
    persistent_ = true;
    start_deployment();
    open_pool_and_login();
    // Untimed warm-up: every user's list is read once.
    std::size_t n = 0;
    run_ops(kUsers, [this, &n](std::size_t) { return list_op(n++); });
  }

  Window run_window(double seconds, SpanLog& spans) override {
    Rng draws(seed_ ^ 0xc4a1);
    DriveSpec d;
    d.seconds = seconds;
    return timed(d, spans, [this, &draws](std::size_t) {
      const std::size_t user = user_zipf_.draw(draws);
      if (draws.uniform() < 0.5) {
        return rotate_op(user, account_zipf_.draw(draws));
      }
      return list_op(user);
    });
  }

  Window write_read_probe(const Window& w) override {
    Window split;
    split.write_ms = w.write_ms;
    split.read_ms = w.read_ms;
    return split;
  }

  void check(const Window& w,
             std::vector<std::string>& failures) const override {
    const std::uint64_t appends =
        counter_delta(w.before, w.after, "storage.journal_appends");
    if (appends != w.writes) {
      failures.push_back("storage.journal_appends delta " +
                         std::to_string(appends) + " != writes " +
                         std::to_string(w.writes));
    }
  }

 private:
  Zipf user_zipf_;
  Zipf account_zipf_;
};

}  // namespace

std::unique_ptr<Workload> Workload::create(const std::string& name,
                                           std::uint64_t seed,
                                           const std::string& work_dir,
                                           net::EventLoop& loop) {
  if (name == "login_cold") {
    return std::make_unique<LoginCold>(seed, work_dir, loop);
  }
  if (name == "password_round") {
    return std::make_unique<PasswordRound>(seed, work_dir, loop);
  }
  if (name == "account_churn") {
    return std::make_unique<AccountChurn>(seed, work_dir, loop);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
