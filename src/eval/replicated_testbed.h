// Replicated testbeds: a primary/follower Amnesia cluster in the two
// configurations the failover tests need (docs/CLUSTER.md).
//
// ReplicatedSimTestbed — deterministic, single-threaded. One ordinary
// Testbed supplies the world (simulation, network, gcm, phone, cloud,
// browser) and its server is the initial primary; N-1 further
// AmnesiaServers join the same simulation as "amnesia-server-f1"...,
// each wrapped in a cluster::ClusterNode shipping the unified journal
// (storage commits + trace span starts/ends) over simnet RPC. All
// replicas present one pinned channel key and share one ticket-key
// store, so a browser or phone retargeted after a failover resumes its
// secure channel on the survivor in one round trip. Everything —
// heartbeats, the lease race, the promotion — is simulation events, so a
// whole kill-restart-recover round replays bit-for-bit from a seed.
//
// ReplicatedTcpTestbed — the same world, but the replication stream and
// the client-facing HTTP legs run over real TCP. All replicas share one
// reactor thread, to which start() attaches the one shared simulation
// (pinning its virtual clock to real time). Each replica listens on its
// own ephemeral ports, and the primary ships to followers through
// net::RpcClient connections into net::RpcListener acceptors that serve
// ClusterNode::handle_repl. Use in phases like ShardedTcpTestbed:
// provision single-threaded, start(), then drive real TCP clients from
// your own EventLoop.
//
// Client failover: the testbed installs ClusterNode::set_on_promote so a
// promotion retargets the simulated browser and phone at the survivor
// (ticket-preserving channel reset) and repoints the browser's tracer at
// the survivor's registry — the "browser.await" recovery span then lands
// in the same trace the crashed primary started.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/node.h"
#include "crypto/x25519.h"
#include "eval/testbed.h"
#include "net/reactor_pool.h"
#include "net/rpc.h"
#include "net/tcp.h"

namespace amnesia::eval {

struct ReplicatedSimConfig {
  /// Total replicas: one primary plus replicas-1 followers (min 2).
  std::size_t replicas = 2;
  TestbedConfig base{};
  /// Template for every node; node_name and takeover_stagger_us are
  /// filled in per replica (follower k staggers by (k-1) * 200 ms so the
  /// first follower usually wins the lease race without a conflict).
  cluster::ClusterConfig cluster{};
  /// Wire primary->follower shipping over simnet (the TCP bed sets this
  /// false and connects the peers over real sockets instead).
  bool wire_peers_sim = true;
};

class ReplicatedSimTestbed {
 public:
  explicit ReplicatedSimTestbed(ReplicatedSimConfig config = {});

  /// The base testbed: replica 0 plus the browser/phone/gcm/cloud world.
  Testbed& bed() { return *bed_; }
  std::size_t replicas() const { return nodes_.size(); }
  server::AmnesiaServer& replica(std::size_t k);
  cluster::ClusterNode& node(std::size_t k) { return *nodes_[k]; }
  /// The current primary's index, or replicas() if every node is dead or
  /// following (transiently true mid-failover).
  std::size_t primary_index() const;

  /// Points the simulated browser and phone at replica k and repoints
  /// the browser's tracer at k's registry (promotion calls this
  /// automatically via set_on_promote).
  void retarget_clients(std::size_t k);

  /// Steps the simulation until `pred` holds or `max_virtual_us` of
  /// virtual time passes; returns whether the predicate held.
  bool run_until(const std::function<bool()>& pred, Micros max_virtual_us);

  /// Synchronous POST /password/await through the simulated browser
  /// (which follows the current primary after retarget_clients).
  Result<std::string> await_password(const std::string& username,
                                     const std::string& domain);

  const crypto::X25519KeyPair& channel_keys() const { return keys_; }

 private:
  ReplicatedSimConfig config_;
  crypto::X25519KeyPair keys_;
  std::shared_ptr<securechan::TicketKeyStore> ticket_keys_;
  std::unique_ptr<Testbed> bed_;
  std::vector<std::unique_ptr<crypto::ChaChaDrbg>> follower_rngs_;
  std::vector<std::unique_ptr<server::AmnesiaServer>> followers_;
  std::vector<std::unique_ptr<cluster::ClusterNode>> nodes_;
};

struct ReplicatedTcpConfig {
  std::size_t replicas = 2;
  ReplicatedSimConfig sim{};  // wire_peers_sim is forced off
};

class ReplicatedTcpTestbed {
 public:
  explicit ReplicatedTcpTestbed(ReplicatedTcpConfig config = {});
  ~ReplicatedTcpTestbed();

  ReplicatedSimTestbed& world() { return *world_; }
  Testbed& bed() { return world_->bed(); }
  cluster::ClusterNode& node(std::size_t k) { return world_->node(k); }

  /// Binds every replica's HTTP and replication listeners, connects the
  /// peer wires, and launches the single reactor thread. After this only
  /// the reactor touches the shared simulation; drive clients over TCP.
  void start();
  void stop();
  bool started() const { return started_; }

  /// Replica k's client-facing port (valid after start()).
  std::uint16_t port(std::size_t k) const { return http_ports_[k]; }
  const crypto::X25519Key& public_key() const {
    return world_->channel_keys().public_key;
  }
  net::EventLoop& loop() { return pool_->loop(0); }

 private:
  ReplicatedTcpConfig config_;
  std::unique_ptr<ReplicatedSimTestbed> world_;
  std::unique_ptr<net::ReactorPool> pool_;
  std::vector<std::unique_ptr<net::TcpTransport>> http_transports_;
  std::vector<std::unique_ptr<net::TcpTransport>> repl_transports_;
  std::vector<std::unique_ptr<net::RpcListener>> listeners_;
  std::vector<std::unique_ptr<net::TcpTransport>> peer_dials_;
  std::vector<std::unique_ptr<net::RpcClient>> peer_clients_;
  std::vector<std::uint16_t> http_ports_;
  simnet::Simulation::Attachment attachment_;
  bool started_ = false;
};

}  // namespace amnesia::eval
