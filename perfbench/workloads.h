// The three workloads (README.md): login_cold, password_round and
// account_churn. A Workload owns one deployment at a time, its clients
// and its seeded inputs, and drives timed windows over real TCP.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "obs/metrics.h"
#include "spans.h"

namespace perfbench {

/// What one timed window measured.
struct Window {
  std::vector<double> lat_ms;    // every successful operation
  std::vector<double> write_ms;  // account-rotate writes
  std::vector<double> read_ms;   // account-list reads
  std::size_t attempted = 0;
  std::size_t failed = 0;        // failed, refused, or wrong output
  std::size_t writes = 0;        // successful writes
  std::size_t reads = 0;         // successful reads
  std::size_t tcp_exchanges = 0;  // harness HTTP requests sent
  double wall_s = 0;
  double cpu_s = 0;          // process user + sys
  double harness_cpu_s = 0;  // the harness thread
  double reactor_cpu_s = 0;  // all server reactor threads
  std::size_t reactors = 0;  // how many there are
  std::vector<double> send_lag_us;  // open loop only
  std::size_t backlog_max = 0;      // most operations in flight at once
  std::int64_t db_bytes = 0;        // growth of the database directory
  std::uint64_t pool_reuses = 0;    // harness connection-pool counters
  std::uint64_t pool_dials = 0;
  amnesia::obs::Snapshot before, after;  // merged GET /metrics
  std::vector<std::string> errors;       // first few failure reasons
};

/// Sizes and samples of a workload that the replays reuse.
struct ReplayInputs {
  bool persistent = false;
  std::size_t users = 0;
  std::size_t accounts_per_user = 0;
  std::string user, username, domain;  // one real account
  /// The workload's main request, as a browser sends it.
  std::string request_path;
  std::map<std::string, std::string> request_form;
  std::string cookie;  // a real session cookie value ("" if none)
};

class Workload {
 public:
  static std::unique_ptr<Workload> create(const std::string& name,
                                          std::uint64_t seed,
                                          const std::string& work_dir,
                                          amnesia::net::EventLoop& loop);
  virtual ~Workload() = default;

  /// Builds the deployment, provisions every user, logs the clients in
  /// and runs the untimed warm-up. Replaces any earlier deployment.
  virtual void setup() = 0;
  /// Stops the deployment and drops the clients.
  virtual void teardown() = 0;
  /// One timed window of the workload's traffic, scraped before and
  /// after. Spans are recorded when `spans` is enabled.
  virtual Window run_window(double seconds, SpanLog& spans) = 0;
  /// Latencies of account writes and reads (write_ms, read_ms).
  /// account_churn takes them from its window `w`; the other workloads
  /// run a short closed-loop rotate/list probe on their own deployment
  /// after the window and return its operations.
  virtual Window write_read_probe(const Window& w) = 0;
  /// Workload-specific checks on the window's counters; appends failures.
  virtual void check(const Window& w,
                     std::vector<std::string>& failures) const = 0;
  virtual ReplayInputs replay_inputs() const = 0;
};

}  // namespace perfbench
