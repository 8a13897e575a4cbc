#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog::Id SpanLog::begin(const char* name, Id parent) {
  if (!enabled_) return 0;
  spans_.push_back(Span{parent, name, now_ns(), -1});
  return static_cast<Id>(spans_.size());
}

void SpanLog::end(Id id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_ns = now_ns();
}

std::vector<SpanLog::NameSummary> SpanLog::summarize() const {
  // Children of each span, to subtract the union of their intervals.
  std::vector<std::vector<Id>> children(spans_.size() + 1);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) children[spans_[i].parent].push_back(i + 1);
  }
  struct Acc {
    std::size_t count = 0;
    double total = 0, self = 0;
  };
  std::map<std::string, Acc> by_name;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    cover.clear();
    for (const Id c : children[i + 1]) {
      const Span& k = spans_[c - 1];
      if (k.end_ns < 0) continue;
      cover.emplace_back(std::max(k.start_ns, s.start_ns),
                         std::min(k.end_ns, s.end_ns));
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, reach = s.start_ns;
    for (const auto& [a, b] : cover) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    const std::int64_t dur = s.end_ns - s.start_ns;
    Acc& acc = by_name[s.name];
    ++acc.count;
    acc.total += static_cast<double>(dur) / 1e3;
    acc.self += static_cast<double>(dur - covered) / 1e3;
  }
  std::vector<NameSummary> out;
  for (const auto& [name, acc] : by_name) {
    out.push_back(NameSummary{name, acc.count, acc.total / acc.count,
                              acc.self / acc.count});
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %u, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 i + 1, s.parent, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
