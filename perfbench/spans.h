// Harness-side tracing for the traced run: an in-memory span around every
// call the harness makes into the stack (operation, dial, handshake,
// request), linked parent to child, written out when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Id = std::uint32_t;  // 0 = no span (tracing off, or no parent)

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span; `name` must be a string literal.
  Id begin(const char* name, Id parent = 0);
  void end(Id id);

  /// Per span name: count, mean duration and mean self time (duration
  /// minus the part of it covered by child spans), in microseconds.
  struct NameSummary {
    std::string name;
    std::size_t count = 0;
    double mean_us = 0;
    double mean_self_us = 0;
  };
  std::vector<NameSummary> summarize() const;

  /// Writes one JSON object per span ({id, parent, name, start_ns,
  /// end_ns}) to `path`; returns false if the file cannot be written.
  bool write_jsonl(const std::string& path) const;


 private:
  struct Span {
    Id parent;
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;  // -1 while open
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Monotonic clock in nanoseconds.
std::int64_t now_ns();

}  // namespace perfbench
