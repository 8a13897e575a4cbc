// perfbench: the repository benchmark harness (README.md).
//
//   perfbench --workload <login_cold|password_round|account_churn>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// --trace 0 sets the deployment up three times (setup_s is the median),
// runs one timed window and prints the end-to-end metrics. --trace 1 sets
// up once, runs an untraced and a traced half-window, times the layer
// replays and the write/read probe, and prints the per-layer metrics with
// the workload's layer budget. The last line of standard output is the result object; the
// line before it is a report with the host fingerprint, the calibration
// probe and (traced) the budget.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "crypto/drbg.h"
#include "crypto/password_hash.h"
#include "net/event_loop.h"
#include "replay.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_work";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || a.seconds <= 0) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--work-dir <dir>]");
  }
  return a;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The host a result came from: CPU model, cores, the ISA flags the
/// crypto fast paths care about, and the build type.
std::string host_fingerprint() {
  std::ifstream in("/proc/cpuinfo");
  std::string line, model = "unknown", flags;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_first_of("\t:"));
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model == "unknown") model = value;
    if (key == "flags" && flags.empty()) flags = " " + value + " ";
  }
  std::ostringstream out;
  out << "{\"cpu\": " << json_string(model)
      << ", \"nproc\": " << std::thread::hardware_concurrency();
  for (const char* flag : {"sha_ni", "avx2", "avx512f"}) {
    out << ", \"" << flag << "\": "
        << (flags.find(std::string(" ") + flag + " ") != std::string::npos
                ? "true"
                : "false");
  }
  out << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE) << "}";
  return out.str();
}

/// PBKDF2 at the server's default 10k iterations, timed in this run so
/// numbers from different hosts can be put side by side.
double calibration_probe_ms() {
  amnesia::crypto::ChaChaDrbg rng(3);
  const amnesia::crypto::PasswordHasher hasher;
  const amnesia::Bytes secret = {'p', 'r', 'o', 'b', 'e'};
  const auto record = hasher.hash(secret, rng);
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t t0 = now_ns();
    if (!amnesia::crypto::PasswordHasher::verify(secret, record)) {
      throw std::runtime_error("calibration probe failed to verify");
    }
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  return percentile(ms, 0.5);
}

double per(double count, double ops) { return ops > 0 ? count / ops : 0; }

using Metrics = std::map<std::string, std::pair<double, std::string>>;

/// Per-layer metrics of an untraced window plus the replay costs, and the
/// layer budget: count per operation x replay cost, against the p50.
struct Layers {
  Metrics metrics;
  std::vector<std::pair<std::string, double>> budget_us;  // per operation
};

Layers per_layer(const Window& w, const std::map<std::string, double>& rp,
                 double p50_ms) {
  Layers out;
  Metrics& m = out.metrics;
  const double ops = static_cast<double>(w.lat_ms.size());
  const auto d = [&](const char* name) {
    return static_cast<double>(counter_delta(w.before, w.after, name));
  };
  const auto put = [&](const std::string& name, double v, const char* unit) {
    m[name] = {v, unit};
  };
  const auto hist_p99 = [&](const char* name) {
    return static_cast<double>(
        bucket_quantile(histogram_delta(w.before, w.after, name), 0.99));
  };

  for (const char* name :
       {"crypto.pbkdf2_verify_us", "crypto.x25519_us",
        "securechan.handshake_cold_us", "securechan.handshake_resumed_us",
        "securechan.seal_open_us", "core.generate_us", "websvc.parse_us",
        "net.rpc_echo_rtt_us", "storage.upsert_fsync_us",
        "storage.list_accounts_us", "cluster.codec_us"}) {
    put(name, rp.at(name), "us");
  }
  put("crypto.pbkdf2_iterations_per_op",
      per(d("crypto.pbkdf2_iterations"), ops), "count");
  const double records =
      d("securechan.records_sealed") + d("securechan.records_opened");
  put("securechan.records_per_op", per(records, ops), "count");
  put("securechan.bytes_per_op",
      per(d("securechan.bytes_in") + d("securechan.bytes_out"), ops), "B");
  put("securechan.handshakes_per_op", per(d("securechan.handshakes"), ops),
      "count");
  put("securechan.resumptions_per_op", per(d("securechan.resumptions"), ops),
      "count");
  const double rejected = d("securechan.resumptions_rejected");
  put("securechan.resume_reject_ratio",
      per(rejected, d("securechan.resumptions") + rejected), "ratio");
  put("websvc.requests_per_op", per(d("http.requests"), ops), "count");
  put("websvc.shed_per_op", per(d("resilience.requests_shed"), ops),
      "count");
  put("websvc.pool_reuse_ratio",
      per(static_cast<double>(w.pool_reuses),
          static_cast<double>(w.pool_reuses + w.pool_dials)),
      "ratio");
  put("net.bytes_per_op", per(d("net.bytes_rx") + d("net.bytes_tx"), ops),
      "B");
  put("net.epoll_wakeups_per_op", per(d("net.epoll_wakeups"), ops), "count");
  put("net.loop.callback_p99_us", hist_p99("net.loop.callback_us"), "us");
  put("net.loop.timer_slip_p99_us", hist_p99("net.loop.timer_slip_us"), "us");
  put("net.loop.post_depth_max",
      static_cast<double>(gauge(w.after, "net.loop.post_depth_max")),
      "count");
  put("net.reactor_cpu_ms_per_op", per(w.reactor_cpu_s * 1e3, ops), "ms");
  put("net.reactor_busy_ratio",
      per(w.reactor_cpu_s, w.wall_s * static_cast<double>(w.reactors)),
      "ratio");
  put("server.forwarded_per_op", per(d("shard.forwarded_out"), ops),
      "count");
  put("server.mailbox_dropped", d("shard.mailbox_dropped"), "count");
  put("server.push_failures_per_op", per(d("server.push_failures"), ops),
      "count");
  put("server.timed_out_per_op", per(d("server.requests_timed_out"), ops),
      "count");
  put("rendezvous.pushes_per_op", per(d("push.pushes_accepted"), ops),
      "count");
  put("rendezvous.poll_fallback_ratio",
      per(d("server.poll_enqueued"), d("server.password_requests")),
      "ratio");
  put("storage.journal_appends_per_op",
      per(d("storage.journal_appends"), ops), "count");
  put("storage.mutations_per_op", per(d("storage.mutations"), ops), "count");
  put("storage.lookups_per_op", per(d("storage.lookups"), ops), "count");
  put("storage.journal_bytes_per_write",
      per(static_cast<double>(w.db_bytes), static_cast<double>(w.writes)),
      "B");
  put("cluster.records_shipped_per_op",
      per(d("cluster.records_shipped"), ops), "count");
  put("cluster.barriers_waited_per_op",
      per(d("cluster.barriers_waited"), ops), "count");
  put("cluster.barrier_timeouts_per_op",
      per(d("cluster.barrier_timeouts"), ops), "count");
  std::vector<double> lag = w.send_lag_us;
  put("harness.send_lag_p99_us", percentile(lag, 0.99), "us");
  put("harness.backlog_max", static_cast<double>(w.backlog_max), "count");
  put("harness.cpu_ms_per_op", per(w.harness_cpu_s * 1e3, ops), "ms");

  // The budget: what each layer's counted work costs per operation.
  auto& b = out.budget_us;
  b.emplace_back("crypto.pbkdf2",
                 per(d("crypto.pbkdf2_calls"), ops) *
                     rp.at("crypto.pbkdf2_verify_us"));
  b.emplace_back(
      "securechan.handshake",
      per(d("securechan.handshakes"), ops) *
              rp.at("securechan.handshake_cold_us") +
          per(d("securechan.resumptions"), ops) *
              rp.at("securechan.handshake_resumed_us"));
  b.emplace_back("securechan.records",
                 per(records, ops) * rp.at("securechan.seal_open_us"));
  b.emplace_back("websvc.parse",
                 per(d("http.requests"), ops) * rp.at("websvc.parse_us"));
  b.emplace_back("net.tcp_round_trips",
                 per(static_cast<double>(w.tcp_exchanges), ops) *
                     rp.at("net.rpc_echo_rtt_us"));
  b.emplace_back("core.generate", per(d("server.passwords_generated"), ops) *
                                      rp.at("core.generate_us"));
  b.emplace_back("storage.write", per(d("storage.journal_appends"), ops) *
                                      rp.at("storage.upsert_fsync_us"));
  b.emplace_back("storage.read",
                 per(static_cast<double>(w.reads), ops) *
                     rp.at("storage.list_accounts_us"));
  b.emplace_back("cluster.codec",
                 per(d("cluster.records_shipped"), ops) *
                     per(rp.at("cluster.codec_us"),
                         rp.at("cluster.codec_records")));
  b.emplace_back("cluster.ship_ack", per(d("cluster.barriers_waited"), ops) *
                                         rp.at("net.rpc_echo_rtt_us"));
  double sum_us = 0;
  for (const auto& [name, us] : b) sum_us += us;
  const double p50_us = p50_ms * 1e3;
  put("budget.remainder_ratio", per(p50_us - sum_us, p50_us), "ratio");
  return out;
}

ReplaySizes replay_sizes(const Window& w) {
  const auto d = [&](const char* name) {
    return static_cast<double>(counter_delta(w.before, w.after, name));
  };
  ReplaySizes s;
  s.record_bytes =
      per(d("securechan.bytes_in") + d("securechan.bytes_out"),
          d("securechan.records_sealed") + d("securechan.records_opened"));
  s.frame_bytes = per(d("net.bytes_rx") + d("net.bytes_tx"),
                      2.0 * static_cast<double>(w.tcp_exchanges));
  s.records_per_round =
      per(d("cluster.records_shipped"), d("server.passwords_generated"));
  return s;
}

double p50(const std::vector<double>& v) {
  std::vector<double> c = v;
  return percentile(c, 0.5);
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, vu] : m) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(vu.first) +
           ", \"unit\": " + json_string(vu.second) + "}";
  }
  return out + "}";
}

int run(const Args& args) {
  const std::string work_dir = args.work_dir + "/" + args.workload + "-" +
                               std::to_string(args.seed) + "-" +
                               std::to_string(::getpid());
  std::filesystem::create_directories(work_dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{work_dir};

  const double probe_ms = calibration_probe_ms();
  amnesia::net::EventLoop loop;
  std::unique_ptr<Workload> wl =
      Workload::create(args.workload, args.seed, work_dir, loop);

  Metrics metrics;
  std::vector<std::string> failures;
  std::size_t attempted = 0, failed = 0;
  std::string report_extra;
  const auto account = [&](const Window& w) {
    attempted += w.attempted;
    failed += w.failed;
    for (const std::string& e : w.errors) failures.push_back(e);
    wl->check(w, failures);
  };

  if (!args.trace) {
    std::vector<double> setup_s;
    for (int i = 0; i < kSetups; ++i) {
      wl->teardown();
      const std::int64_t t0 = now_ns();
      wl->setup();
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    SpanLog off(false);
    Window w = wl->run_window(args.seconds, off);
    account(w);
    const std::size_t ok = w.lat_ms.size();
    if (samples_beyond(ok, 0.99) < 10) {
      failures.push_back("only " + std::to_string(samples_beyond(ok, 0.99)) +
                         " samples beyond p99 (need 10)");
    }
    std::vector<double> lat = w.lat_ms;
    metrics["setup_s"] = {percentile(setup_s, 0.5), "s"};
    metrics["ops_per_s"] = {per(static_cast<double>(ok), w.wall_s), "1/s"};
    metrics["latency_p50_ms"] = {percentile(lat, 0.5), "ms"};
    metrics["latency_p99_ms"] = {percentile(lat, 0.99), "ms"};
    metrics["cpu_ms_per_op"] = {per(w.cpu_s * 1e3, static_cast<double>(ok)),
                                "ms"};
    report_extra = ", \"samples\": " + std::to_string(ok) +
                   ", \"samples_beyond_p99\": " +
                   std::to_string(samples_beyond(ok, 0.99));
  } else {
    wl->setup();
    SpanLog off(false), spans(true);
    const Window plain = wl->run_window(args.seconds / 2, off);
    const Window traced = wl->run_window(args.seconds / 2, spans);
    account(plain);
    account(traced);
    const double p50_plain = p50(plain.lat_ms);
    const auto replays = run_replays(wl->replay_inputs(), replay_sizes(plain),
                                     work_dir, loop);
    Layers layers = per_layer(plain, replays, p50_plain);
    metrics = std::move(layers.metrics);
    const Window probe = wl->write_read_probe(plain);
    attempted += probe.attempted;
    failed += probe.failed;
    failures.insert(failures.end(), probe.errors.begin(), probe.errors.end());
    metrics["write_p50_ms"] = {p50(probe.write_ms), "ms"};
    metrics["read_p50_ms"] = {p50(probe.read_ms), "ms"};
    metrics["trace.overhead_ratio"] = {per(p50(traced.lat_ms), p50_plain),
                                       "ratio"};
    metrics["error_ratio"] = {
        per(static_cast<double>(failed), static_cast<double>(attempted)),
        "ratio"};

    std::filesystem::create_directories(".bench_out");
    const std::string spans_path = ".bench_out/spans-" + args.workload +
                                   "-" + std::to_string(args.seed) + ".jsonl";
    if (!spans.write_jsonl(spans_path)) {
      throw std::runtime_error("cannot write " + spans_path);
    }
    std::printf("budget %s (per operation, untraced p50 %.3f ms):\n",
                args.workload.c_str(), p50_plain);
    report_extra = ", \"budget_us\": {";
    double sum = 0;
    bool first = true;
    for (const auto& [name, us] : layers.budget_us) {
      std::printf("  %-24s %10.1f us\n", name.c_str(), us);
      report_extra += (first ? "" : ", ") + json_string(name) + ": " +
                      json_number(us);
      first = false;
      sum += us;
    }
    std::printf("  %-24s %10.1f us\n  %-24s %10.1f us (ratio %.3f)\n",
                "sum of layers", sum, "remainder",
                p50_plain * 1e3 - sum,
                metrics["budget.remainder_ratio"].first);
    report_extra += "}, \"spans\": " + json_string(spans_path) +
                    ", \"span_self_us\": {";
    first = true;
    for (const auto& s : spans.summarize()) {
      std::printf("  span %-16s n=%-6zu mean %9.1f us, self %9.1f us\n",
                  s.name.c_str(), s.count, s.mean_us, s.mean_self_us);
      report_extra += (first ? "" : ", ") + json_string(s.name) + ": " +
                      json_number(s.mean_self_us);
      first = false;
    }
    report_extra += "}";
  }
  wl->teardown();

  const bool correct = failed == 0 && failures.empty();
  for (const std::string& f : failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  std::printf("{\"report\": {\"workload\": %s, \"seed\": %llu, \"host\": %s, "
              "\"pbkdf2_10k_probe_ms\": %s%s}}\n",
              json_string(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed),
              host_fingerprint().c_str(), json_number(probe_ms).c_str(),
              report_extra.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", std::max<std::size_t>(attempted, 1),
              failed, metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
