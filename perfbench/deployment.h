// The benchmark's one deployment adapter: the only benchmark file that
// names the eval testbeds. Everything else reaches the deployment over
// TCP (the client port) and GET /metrics, so a change in how the server
// is assembled touches this file and leaves the workloads alone.
//
// The deployment runs the server's shipped defaults (PBKDF2 at 10k
// iterations included) with three changes copied from bench_net_loopback:
// simulated links are flattened to ~10 us and the virtual CPU charges are
// zeroed (both part of the calibrated WAN/phone model that the fig3 bench
// owns), and the server has 64 workers instead of 10, so password rounds
// waiting on the phone cannot starve the phone's own /token posts.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crypto/x25519.h"

namespace perfbench {

struct UserSpec {
  std::string name;
  std::string master_password;
  /// (username, domain) pairs added to the user's account list.
  std::vector<std::pair<std::string, std::string>> accounts;
};

struct DeploymentSpec {
  std::size_t shards = 1;    // server reactors sharing one port
  std::size_t replicas = 1;  // > 1: a primary/follower cluster, 1 reactor
  std::string db_dir;        // empty = in-memory; one shard, no replicas
  std::uint64_t seed = 1;
};

/// The shard that owns `user` in a deployment of `shards` shards (the
/// server's identity routing).
std::size_t owner_shard(const std::string& user, std::size_t shards);

class Deployment {
 public:
  /// Builds the deployment, provisions every user (signup, login, phone
  /// pairing, backup, accounts) and starts serving on 127.0.0.1.
  Deployment(const DeploymentSpec& spec, const std::vector<UserSpec>& users);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// The port clients talk to (the primary's, in a cluster).
  std::uint16_t port() const;
  /// Every port an operator scrapes GET /metrics on: the one router port
  /// of a sharded deployment, or each replica's port in a cluster.
  std::vector<std::uint16_t> scrape_ports() const;
  const amnesia::crypto::X25519Key& public_key() const;
  /// OS thread ids of the server reactor threads.
  const std::vector<pid_t>& reactor_tids() const { return tids_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::vector<pid_t> tids_;
};

}  // namespace perfbench
