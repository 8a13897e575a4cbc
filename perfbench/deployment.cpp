#include "deployment.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <future>
#include <stdexcept>

#include "eval/replicated_testbed.h"
#include "eval/sharded_testbed.h"
#include "server/shard.h"

namespace perfbench {

using namespace amnesia;

namespace {

eval::TestbedConfig base_config(std::uint64_t seed) {
  eval::TestbedConfig config;
  config.seed = seed;
  // As in bench_net_loopback: a password round holds a worker until the
  // phone's /token arrives, and that /token needs a worker too. With the
  // shipped 10, a stall of ~70 ms at password_round's rate can fill them
  // all, and then every round in flight times out (README.md).
  config.server.workers = 64;
  config.server.token_compute_mean_ms = 0.0;
  config.server.token_compute_stddev_ms = 0.0;
  config.server.light_compute_ms = 0.0;
  config.phone.compute_mean_ms = 0.0;
  config.phone.compute_stddev_ms = 0.0;
  return config;
}

/// Every simnet node of a testbed world; `followers` extra replicas.
std::vector<std::string> node_ids(std::size_t followers) {
  std::vector<std::string> ids = {"browser", "amnesia-server", "gcm",
                                  "phone", "cloud", "amnesia-server.repl"};
  for (std::size_t k = 1; k <= followers; ++k) {
    const std::string f = "amnesia-server-f" + std::to_string(k);
    ids.push_back(f);
    ids.push_back(f + ".repl");
  }
  return ids;
}

void flatten_links(simnet::Network& net, std::size_t followers) {
  simnet::LinkProfile fast;
  fast.name = "near-zero";
  fast.base_latency_ms = 0.01;
  fast.jitter_ms = 0.0;
  fast.min_latency_ms = 0.005;
  fast.bandwidth_mbps = 40'000.0;
  fast.loss_probability = 0.0;
  net.set_default_link(fast);
  const std::vector<std::string> ids = node_ids(followers);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      net.set_duplex_link(ids[i], ids[j], fast, fast);
    }
  }
}

/// Signup, login, phone pairing and backup on the user's bed, then the
/// user's accounts through the bed's browser, which that login left
/// signed in as this user.
void provision(eval::Testbed& bed, const UserSpec& user) {
  if (Status s = bed.provision(user.name, user.master_password); !s.ok()) {
    throw std::runtime_error("provision " + user.name + ": " + s.message());
  }
  for (const auto& [username, domain] : user.accounts) {
    if (Status s = bed.add_account(username, domain); !s.ok()) {
      throw std::runtime_error("add_account " + user.name + ": " +
                               s.message());
    }
  }
}

pid_t current_tid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

}  // namespace

std::size_t owner_shard(const std::string& user, std::size_t shards) {
  return server::shard_of_user(user, shards);
}

struct Deployment::Impl {
  std::unique_ptr<eval::ShardedTcpTestbed> sharded;
  std::unique_ptr<eval::ReplicatedTcpTestbed> cluster;
};

Deployment::Deployment(const DeploymentSpec& spec,
                       const std::vector<UserSpec>& users)
    : impl_(std::make_unique<Impl>()) {
  if (spec.replicas > 1) {
    eval::ReplicatedTcpConfig config;
    config.replicas = spec.replicas;
    config.sim.base = base_config(spec.seed);
    if (!spec.db_dir.empty()) {
      // Every replica would be handed the same database file.
      throw std::invalid_argument("a cluster runs on in-memory storage");
    }
    impl_->cluster = std::make_unique<eval::ReplicatedTcpTestbed>(config);
    eval::Testbed& bed = impl_->cluster->bed();
    flatten_links(bed.net(), spec.replicas - 1);
    for (const UserSpec& u : users) provision(bed, u);
    impl_->cluster->start();
    std::promise<pid_t> tid;
    impl_->cluster->loop().post([&tid] { tid.set_value(current_tid()); });
    tids_.push_back(tid.get_future().get());
    return;
  }
  eval::ShardedTcpConfig config;
  config.shards = spec.shards;
  config.seed = spec.seed;
  config.base = base_config(spec.seed);
  if (!spec.db_dir.empty()) {
    if (spec.shards != 1) {
      throw std::invalid_argument("persistent storage needs one shard");
    }
    config.base.server.db_path = spec.db_dir + "/shard-0.db";
  }
  impl_->sharded = std::make_unique<eval::ShardedTcpTestbed>(config);
  eval::ShardedTcpTestbed& st = *impl_->sharded;
  for (std::size_t k = 0; k < st.shards(); ++k) {
    flatten_links(st.bed(k).net(), 0);
  }
  for (const UserSpec& u : users) provision(st.bed(st.owner_of(u.name)), u);
  st.start();
  for (std::size_t k = 0; k < st.shards(); ++k) {
    pid_t tid = 0;
    st.pool().run_on_sync(k, [&tid] { tid = current_tid(); });
    tids_.push_back(tid);
  }
}

Deployment::~Deployment() {
  if (impl_->sharded) impl_->sharded->stop();
  if (impl_->cluster) impl_->cluster->stop();
}

std::uint16_t Deployment::port() const {
  return impl_->sharded ? impl_->sharded->port() : impl_->cluster->port(0);
}

std::vector<std::uint16_t> Deployment::scrape_ports() const {
  if (impl_->sharded) return {impl_->sharded->port()};
  std::vector<std::uint16_t> ports;
  for (std::size_t k = 0; k < impl_->cluster->world().replicas(); ++k) {
    ports.push_back(impl_->cluster->port(k));
  }
  return ports;
}

const crypto::X25519Key& Deployment::public_key() const {
  return impl_->sharded ? impl_->sharded->public_key()
                        : impl_->cluster->public_key();
}

}  // namespace perfbench
