#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n)) %
         n;
}

double poisson_gap_us(Rng& rng, double rate_per_s) {
  // 1 - u is in (0, 1], so the log is finite.
  return -std::log(1.0 - rng.uniform()) * 1e6 / rate_per_s;
}

Zipf::Zipf(std::size_t n, double s) {
  if (n == 0) throw std::invalid_argument("Zipf: empty support");
  cdf_.reserve(n);
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

std::size_t Zipf::draw(Rng& rng) const {
  const double u = rng.uniform();
  return static_cast<std::size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

std::size_t percentile_index(std::size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const std::size_t r = rank < 1 ? 1 : static_cast<std::size_t>(rank);
  return std::min(r, n) - 1;
}

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[percentile_index(samples.size(), q)];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - percentile_index(n, q);
}

std::uint64_t counter(const amnesia::obs::Snapshot& s,
                      const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

std::uint64_t counter_delta(const amnesia::obs::Snapshot& before,
                            const amnesia::obs::Snapshot& after,
                            const std::string& name) {
  const std::uint64_t a = counter(after, name);
  const std::uint64_t b = counter(before, name);
  return a > b ? a - b : 0;
}

std::int64_t gauge(const amnesia::obs::Snapshot& s, const std::string& name) {
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0 : it->second;
}

amnesia::obs::HistogramSnapshot histogram_delta(
    const amnesia::obs::Snapshot& before, const amnesia::obs::Snapshot& after,
    const std::string& name) {
  amnesia::obs::HistogramSnapshot out;
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return out;
  out.bounds = a->second.bounds;
  out.counts = a->second.counts;
  out.max = a->second.max;
  const auto b = before.histograms.find(name);
  if (b != before.histograms.end() && b->second.bounds == out.bounds) {
    for (std::size_t i = 0; i < out.counts.size(); ++i) {
      out.counts[i] -= std::min(out.counts[i], b->second.counts[i]);
    }
  }
  for (const std::uint64_t c : out.counts) out.count += c;
  return out;
}

std::int64_t bucket_quantile(const amnesia::obs::HistogramSnapshot& h,
                             double q) {
  if (h.count == 0) return 0;
  const std::size_t target = percentile_index(h.count, q) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    seen += h.counts[i];
    if (seen >= target) return i < h.bounds.size() ? h.bounds[i] : h.max;
  }
  return h.max;
}

void merge_metrics_text(amnesia::obs::Snapshot& into,
                        const std::string& text) {
  amnesia::obs::merge_snapshot(into, amnesia::obs::parse_text(text));
}

}  // namespace perfbench
