// Self-tests for the harness statistics (stats.h): percentile indexing,
// the seeded Poisson and Zipf generators, and the /metrics text parser and
// window delta. run.py runs this binary before every benchmark run; a
// failure stops the run before it prints a result.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "stats.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

void test_percentile_index() {
  using perfbench::percentile_index;
  expect(percentile_index(1, 0.5) == 0, "p50 of one sample");
  expect(percentile_index(2, 0.5) == 0, "p50 of two samples is the lower");
  expect(percentile_index(100, 0.5) == 49, "p50 of 100 is index 49");
  expect(percentile_index(100, 0.99) == 98, "p99 of 100 is index 98");
  expect(percentile_index(1000, 0.99) == 989, "p99 of 1000 is index 989");
  expect(percentile_index(10, 1.0) == 9, "p100 is the maximum");
  expect(percentile_index(10, 0.0) == 0, "p0 is the minimum");
  expect(perfbench::samples_beyond(1000, 0.99) == 10,
         "1000 samples leave 10 beyond p99");
  expect(perfbench::samples_beyond(1099, 0.99) == 10,
         "1099 samples leave 10 beyond p99");
  std::vector<double> v{5, 1, 4, 2, 3};
  expect(perfbench::percentile(v, 0.5) == 3, "median of 1..5");
  expect(v.front() == 1 && v.back() == 5, "percentile sorts in place");
  std::vector<double> empty;
  expect(perfbench::percentile(empty, 0.5) == 0, "empty sample gives 0");
}

void test_rng_determinism() {
  perfbench::Rng a(42), b(42), c(43);
  bool same = true, differs = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t x = a.next();
    same = same && x == b.next();
    differs = differs || x != c.next();
  }
  expect(same, "same seed gives the same stream");
  expect(differs, "another seed gives another stream");
  perfbench::Rng r(7);
  bool in_range = true;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    in_range = in_range && u >= 0 && u < 1 && r.below(7) < 7;
  }
  expect(in_range, "uniform in [0,1) and below(n) in [0,n)");
}

void test_poisson() {
  perfbench::Rng rng(1);
  const double rate = 250;
  const int n = 200000;
  double sum = 0, sumsq = 0;
  for (int i = 0; i < n; ++i) {
    const double g = perfbench::poisson_gap_us(rng, rate);
    expect(g >= 0, "gap is non-negative");
    sum += g;
    sumsq += g * g;
  }
  const double mean = sum / n;
  const double sd = std::sqrt(sumsq / n - mean * mean);
  // Exponential gaps: mean = sd = 1e6 / rate = 4000 us.
  expect(std::fabs(mean - 4000) < 40, "Poisson gap mean is 1/rate");
  expect(std::fabs(sd - 4000) < 80, "Poisson gap sd equals its mean");
}

void test_zipf() {
  const perfbench::Zipf z(50, 1.0);
  perfbench::Rng rng(3);
  std::vector<int> hits(50, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++hits[z.draw(rng)];
  double h = 0;
  for (int k = 1; k <= 50; ++k) h += 1.0 / k;
  const double p0 = 1.0 / h;
  expect(std::fabs(hits[0] / double(n) - p0) < 0.01,
         "Zipf rank 0 has probability 1/H(n)");
  expect(std::fabs(hits[1] / double(hits[0]) - 0.5) < 0.02,
         "Zipf rank 1 is half as likely as rank 0");
  expect(hits[0] > hits[9] && hits[9] > hits[49], "Zipf is decreasing");
  const perfbench::Zipf one(1, 1.0);
  expect(one.draw(rng) == 0, "single-rank Zipf always draws 0");
}

void test_metrics_parser() {
  amnesia::obs::MetricsRegistry reg;
  reg.counter("securechan.handshakes").inc(5);
  reg.gauge("net.loop.post_depth_max").set(3);
  amnesia::obs::Histogram& h =
      reg.histogram("net.loop.callback_us", {10, 100, 1000});
  h.record(5);
  h.record(50);
  const std::string before_text =
      amnesia::obs::to_text(reg.snapshot());
  reg.counter("securechan.handshakes").inc(7);
  for (int i = 0; i < 98; ++i) h.record(50);
  h.record(500);
  h.record(5000);
  const std::string after_text = amnesia::obs::to_text(reg.snapshot());

  amnesia::obs::Snapshot before, after;
  perfbench::merge_metrics_text(before, before_text);
  perfbench::merge_metrics_text(after, after_text);
  expect(perfbench::counter(after, "securechan.handshakes") == 12,
         "parser reads counters");
  expect(perfbench::counter_delta(before, after, "securechan.handshakes") ==
             7,
         "counter delta over the window");
  expect(perfbench::counter_delta(before, after, "absent") == 0,
         "absent counter has delta 0");
  expect(perfbench::gauge(after, "net.loop.post_depth_max") == 3,
         "parser reads gauges");

  const auto d = perfbench::histogram_delta(before, after,
                                            "net.loop.callback_us");
  expect(d.count == 100, "window histogram holds only window samples");
  expect(perfbench::bucket_quantile(d, 0.5) == 100,
         "window p50 is the upper bound of its bucket");
  expect(perfbench::bucket_quantile(d, 0.99) == 1000,
         "window p99 lands in the 1000 bucket");
  expect(perfbench::bucket_quantile(d, 1.0) == 5000,
         "overflow bucket reports the observed max");

  // Two replicas' scrapes sum, as the shard router's merged view does.
  amnesia::obs::Snapshot merged;
  perfbench::merge_metrics_text(merged, after_text);
  perfbench::merge_metrics_text(merged, after_text);
  expect(perfbench::counter(merged, "securechan.handshakes") == 24,
         "merging two scrapes adds counters");

  bool threw = false;
  try {
    amnesia::obs::Snapshot bad;
    perfbench::merge_metrics_text(bad, "not metrics\n");
  } catch (const std::exception&) {
    threw = true;
  }
  expect(threw, "a body without the metrics header is rejected");
}

}  // namespace

int main() {
  test_percentile_index();
  test_rng_determinism();
  test_poisson();
  test_zipf();
  test_metrics_parser();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
