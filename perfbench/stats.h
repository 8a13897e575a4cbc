// Harness statistics: seeded generators, percentiles, and the /metrics
// window delta. Everything here is pure and covered by selftest.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// SplitMix64: the one source of randomness for workload inputs, seeded
/// from --seed, so the same seed gives the same users, draws and arrivals.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n); n > 0.
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Inter-arrival gap of a Poisson process with `rate_per_s` arrivals per
/// second, in microseconds (exponentially distributed, mean 1e6 / rate).
double poisson_gap_us(Rng& rng, double rate_per_s);

/// Zipf(s) over ranks 0..n-1: P(k) proportional to 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank percentile index into a sorted sample of size n > 0:
/// the smallest index i with (i + 1) / n >= q.
std::size_t percentile_index(std::size_t n, double q);

/// Sorts `samples` in place and returns the nearest-rank percentile
/// (0 for an empty sample).
double percentile(std::vector<double>& samples, double q);

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// Counter value in a snapshot (0 when absent).
std::uint64_t counter(const amnesia::obs::Snapshot& s, const std::string& name);

/// Counter increase between two scrapes of the same deployment.
std::uint64_t counter_delta(const amnesia::obs::Snapshot& before,
                            const amnesia::obs::Snapshot& after,
                            const std::string& name);

/// Gauge value in a snapshot (0 when absent).
std::int64_t gauge(const amnesia::obs::Snapshot& s, const std::string& name);

/// Bucket-count difference of one histogram between two scrapes: the
/// samples recorded inside the window (bounds from `after`).
amnesia::obs::HistogramSnapshot histogram_delta(
    const amnesia::obs::Snapshot& before, const amnesia::obs::Snapshot& after,
    const std::string& name);

/// Upper bound of the bucket holding the nearest-rank q-quantile of a
/// window histogram; the overflow bucket reports its observed max. 0 for
/// an empty histogram.
std::int64_t bucket_quantile(const amnesia::obs::HistogramSnapshot& h,
                             double q);

/// Parses a GET /metrics body ("# amnesia metrics v1" text) and folds
/// it into `into` with the library's merge rule (counters add, so scrapes
/// of several replicas sum like the shard router's merged view).
void merge_metrics_text(amnesia::obs::Snapshot& into, const std::string& text);

}  // namespace perfbench
