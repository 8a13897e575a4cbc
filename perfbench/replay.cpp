#include "replay.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cluster/replication.h"
#include "core/generate.h"
#include "crypto/drbg.h"
#include "crypto/password_hash.h"
#include "crypto/x25519.h"
#include "net/reactor_pool.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "securechan/channel.h"
#include "server/db.h"
#include "spans.h"
#include "stats.h"
#include "storage/database.h"
#include "websvc/http.h"

namespace perfbench {

using namespace amnesia;

namespace {

/// Median over `batches` of the mean per-call time of `per_batch` calls,
/// in microseconds, after one untimed batch.
template <typename F>
double median_us(int batches, int per_batch, F&& call) {
  for (int i = 0; i < per_batch; ++i) call();
  std::vector<double> means;
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < per_batch; ++i) call();
    means.push_back(static_cast<double>(now_ns() - t0) / 1e3 / per_batch);
  }
  return percentile(means, 0.5);
}

std::size_t at_least(double v, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(std::lround(v)));
}

core::AccountId account(const ReplayInputs& in) {
  return core::AccountId{in.username, in.domain};
}

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("replay failed: ") + what);
}

/// An in-memory client/server channel pair; the wire is a direct call.
struct ChannelPair {
  crypto::ChaChaDrbg server_rng{11}, client_rng{12};
  crypto::X25519KeyPair keys = crypto::x25519_generate(server_rng);
  securechan::SecureServer server{keys, server_rng};
  securechan::SecureClient client{
      [this](Bytes wire, std::function<void(Result<Bytes>)> cb) {
        server.handle_wire(wire, [cb](Bytes r) { cb(std::move(r)); });
      },
      keys.public_key, client_rng};

  ChannelPair() {
    server.set_handler([](const Bytes& plain, std::function<void(Bytes)> r) {
      r(plain);
    });
  }

  void request(const Bytes& payload) {
    bool ok = false;
    client.request(payload, [&](Result<Bytes> r) { ok = r.ok(); });
    require(ok, "secure-channel request");
  }
};

std::map<std::string, double> time_crypto(const ReplayInputs& in,
                                          const ReplaySizes& sizes) {
  std::map<std::string, double> out;
  crypto::ChaChaDrbg rng(5);
  const crypto::PasswordHasher hasher;  // the server's default options
  const std::string mp = in.request_form.count("master_password")
                             ? in.request_form.at("master_password")
                             : "replay master password";
  const Bytes secret(mp.begin(), mp.end());
  const crypto::PasswordRecord record = hasher.hash(secret, rng);
  out["crypto.pbkdf2_verify_us"] = median_us(9, 1, [&] {
    require(crypto::PasswordHasher::verify(secret, record), "pbkdf2 verify");
  });

  const crypto::X25519KeyPair a = crypto::x25519_generate(rng);
  const crypto::X25519KeyPair b = crypto::x25519_generate(rng);
  out["crypto.x25519_us"] = median_us(15, 20, [&] {
    const crypto::X25519Key k = crypto::x25519(a.private_key, b.public_key);
    require(k[0] != 0 || k[1] != 0 || k[31] != 0, "x25519");
  });

  const Bytes payload(at_least(sizes.record_bytes, 16), 0x61);
  ChannelPair pair;
  pair.request(payload);
  const double data = median_us(15, 50, [&] { pair.request(payload); });
  const double cold = median_us(15, 10, [&] {
    pair.client.forget_ticket();
    pair.client.reset();
    pair.request(payload);
  });
  const double resumed = median_us(15, 10, [&] {
    pair.client.reset();
    pair.request(payload);
  });
  out["securechan.handshake_cold_us"] = std::max(0.0, cold - data);
  out["securechan.handshake_resumed_us"] = std::max(0.0, resumed - data);

  const Bytes key(32, 0x11), iv(12, 0x22), aad(9, 0x33);
  Bytes sealed, opened;
  std::uint64_t seq = 0;
  out["securechan.seal_open_us"] = median_us(15, 200, [&] {
    securechan::seal_record_into(key, iv, ++seq, aad, payload, sealed);
    require(securechan::open_record_into(key, iv, seq, aad, sealed, opened),
            "open_record_into");
  });
  return out;
}

double time_generate(const ReplayInputs& in) {
  crypto::ChaChaDrbg rng(7);
  const core::EntryTable table = core::EntryTable::generate(rng);
  const core::Seed seed = core::Seed::generate(rng);
  const core::OnlineId oid = core::OnlineId::generate(rng);
  const core::PasswordPolicy policy;
  const core::AccountId id = account(in);
  return median_us(15, 50, [&] {
    require(!core::end_to_end_password(id, seed, oid, table, policy).empty(),
            "end_to_end_password");
  });
}

double time_parse(const ReplayInputs& in) {
  websvc::Request req;
  req.method = websvc::Method::kPost;
  req.path = in.request_path;
  req.headers["Content-Type"] = "application/x-www-form-urlencoded";
  if (!in.cookie.empty()) req.headers["Cookie"] = "session=" + in.cookie;
  req.body = websvc::form_encode(in.request_form);
  const Bytes wire = websvc::serialize(req);
  return median_us(15, 200, [&] {
    require(websvc::parse_request(wire).path == in.request_path,
            "parse_request");
  });
}

/// Bare RpcClient to a handler-mode RpcPeer echo over TcpTransport, the
/// echo served by its own reactor thread as a server shard would be.
double time_rpc_echo(const ReplaySizes& sizes, net::EventLoop& loop) {
  net::ReactorPool server(1);
  net::TcpTransport listener(server.loop(0), "127.0.0.1", 0);
  std::vector<std::shared_ptr<net::RpcPeer>> peers;  // server thread only
  listener.listen([&](net::StreamPtr stream) {
    auto peer = net::RpcPeer::attach(std::move(stream), server.loop(0));
    peer->set_handler([](const Bytes& body, std::function<void(Bytes)> r) {
      r(body);
    });
    peers.push_back(std::move(peer));
  });
  server.start();
  double rtt = 0;
  {
    net::TcpTransport dial(loop, "127.0.0.1", listener.local_port());
    net::RpcClient rpc(dial);
    const Bytes body(at_least(sizes.frame_bytes, 16), 0x62);
    rtt = median_us(15, 40, [&] {
      bool done = false, ok = false;
      rpc.request(body, [&](Result<Bytes> r) {
        ok = r.ok() && r.value().size() == body.size();
        done = true;
      });
      while (!done) loop.poll(1'000);
      require(ok, "rpc echo");
    });
    rpc.close();
    for (int i = 0; i < 5; ++i) loop.poll(0);
  }
  server.stop_join();
  peers.clear();
  return rtt;
}

std::map<std::string, double> time_storage(const ReplayInputs& in,
                                           const std::string& work_dir) {
  std::map<std::string, double> out;
  crypto::ChaChaDrbg rng(9);
  const std::size_t accounts = std::max<std::size_t>(1, in.accounts_per_user);
  {
    // One user's accounts, on the workload's kind of storage.
    const std::string path =
        in.persistent ? work_dir + "/replay/accounts.db" : "";
    if (in.persistent) std::filesystem::create_directories(work_dir + "/replay");
    {
      server::DbHandler db(path);
      for (std::size_t k = 0; k < accounts; ++k) {
        db.add_account(server::AccountRecord{
            in.user,
            {in.username + "-" + std::to_string(k), in.domain},
            core::Seed::generate(rng),
            core::PasswordPolicy{}});
      }
      const core::PasswordPolicy policy;
      std::size_t k = 0;
      out["storage.upsert_fsync_us"] = median_us(15, 10, [&] {
        const std::string username =
            in.username + "-" + std::to_string(k++ % accounts);
        db.raw().upsert("accounts",
                        storage::Row{in.user + "\x1f" + in.domain + "\x1f" +
                                         username,
                                     in.user, username, in.domain,
                                     core::Seed::generate(rng).bytes(),
                                     policy.encode()});
      });
    }
    if (in.persistent) std::filesystem::remove_all(work_dir + "/replay");
  }
  {
    // The whole population's accounts in the table, one user's listed.
    server::DbHandler db("");
    for (std::size_t u = 0; u < std::max<std::size_t>(1, in.users); ++u) {
      const std::string user = u == 0 ? in.user : in.user + "-" + std::to_string(u);
      for (std::size_t k = 0; k < accounts; ++k) {
        db.add_account(server::AccountRecord{
            user,
            {in.username + "-" + std::to_string(k), in.domain},
            core::Seed::generate(rng),
            core::PasswordPolicy{}});
      }
    }
    out["storage.list_accounts_us"] = median_us(15, 20, [&] {
      require(db.list_accounts(in.user).size() == accounts, "list_accounts");
    });
  }
  return out;
}

/// encode_append + decode_message of one password round's log records:
/// its cluster_rounds/cluster_meta storage writes (captured from a
/// database commit hook) and its span start/end records.
std::map<std::string, double> time_cluster_codec(const ReplayInputs& in,
                                                 const ReplaySizes& sizes) {
  using storage::ValueType;
  storage::Database db("");
  std::vector<Bytes> payloads;
  db.set_commit_hook(
      [&](std::uint64_t, const Bytes& p) { payloads.push_back(p); });
  db.create_table("cluster_rounds",
                  storage::Schema{{{"id", ValueType::kInt},
                                   {"user", ValueType::kText},
                                   {"username", ValueType::kText},
                                   {"domain", ValueType::kText},
                                   {"tstart_us", ValueType::kInt},
                                   {"purpose", ValueType::kInt},
                                   {"chosen", ValueType::kText},
                                   {"session_token", ValueType::kText},
                                   {"round_trace", ValueType::kText},
                                   {"wait_trace", ValueType::kText}},
                                  0});
  db.create_table("cluster_meta", storage::Schema{{{"name", ValueType::kText},
                                                   {"value", ValueType::kInt}},
                                                  0});
  payloads.clear();
  const std::string trace(51, 'a');
  db.upsert("cluster_rounds",
            {std::int64_t{4242}, in.user, in.username, in.domain,
             std::int64_t{1'700'000'000}, std::int64_t{0}, std::string(),
             in.cookie, trace, trace});
  db.upsert("cluster_meta",
            {std::string("request_id_hwm"), std::int64_t{4242}});
  db.remove("cluster_rounds", std::int64_t{4242});

  std::vector<cluster::LogRecord> records;
  for (const Bytes& p : payloads) {
    records.push_back({cluster::RecordKind::kStorage, p});
  }
  const std::size_t total =
      sizes.records_per_round > 0 ? at_least(sizes.records_per_round, 1) : 8;
  obs::TraceSpan span;
  span.name = "server.round";
  span.component = "amnesia-server";
  span.start = 1'700'000'000;
  span.end = span.start + 2'000;
  span.finished = true;
  while (records.size() < total) {
    const bool start = records.size() % 2 == 1;
    span.id = records.size();
    span.parent = records.size() - 1;
    records.push_back({start ? cluster::RecordKind::kSpanStart
                             : cluster::RecordKind::kSpanEnd,
                       cluster::encode_span(span)});
  }
  std::map<std::string, double> out;
  out["cluster.codec_us"] = median_us(15, 50, [&] {
    const Bytes wire = cluster::encode_append(1, 100, records);
    require(cluster::decode_message(wire).records.size() == records.size(),
            "decode_message");
  });
  out["cluster.codec_records"] = static_cast<double>(records.size());
  return out;
}

}  // namespace

std::map<std::string, double> run_replays(const ReplayInputs& in,
                                          const ReplaySizes& sizes,
                                          const std::string& work_dir,
                                          net::EventLoop& loop) {
  std::map<std::string, double> out = time_crypto(in, sizes);
  out["core.generate_us"] = time_generate(in);
  out["websvc.parse_us"] = time_parse(in);
  out["net.rpc_echo_rtt_us"] = time_rpc_echo(sizes, loop);
  out.merge(time_storage(in, work_dir));
  out.merge(time_cluster_codec(in, sizes));
  return out;
}

}  // namespace perfbench
