// In-memory span recorder for the traced run. The benchmark wraps each call
// it makes into a layer (graph, congest, core, api, service) in a span;
// spans are kept in memory and written out at the end as Chrome
// trace-event JSON, which Perfetto and chrome://tracing open.
//
// When disabled, begin() and end() return at the first branch, so the
// untraced run measures the program, not the recorder.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;         ///< "<layer>.<call>", e.g. "congest.construct"
  std::uint64_t id = 0;     ///< shared by the spans of one request or query
  std::int64_t parent = -1; ///< index of the enclosing span, -1 for none
  std::int64_t start_ns = 0, end_ns = 0;
  std::uint32_t tid = 0;    ///< recording thread (small integer)
};

/// Layer of a span: its name up to the first '.'.
std::string span_layer(const std::string& name);

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Sum of span self times per layer, in seconds.
std::map<std::string, double> layer_self_seconds(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events, microsecond times).
void write_chrome_json(std::ostream& os, const std::vector<Span>& spans);

/// The time every Tracer in the process measures from, so spans of two
/// tracers merge onto one time line.
Clock::time_point trace_origin();

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(trace_origin()) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }

  /// Opens a span; returns its index (-1 when disabled).
  std::int64_t begin(const char* name, std::uint64_t id, std::int64_t parent = -1);
  void end(std::int64_t index);

  /// Records an already-measured interval as a finished span.
  std::int64_t record(const char* name, std::uint64_t id, std::int64_t parent,
                      Clock::time_point start, Clock::time_point end);

  std::vector<Span> spans() const;

 private:
  std::int64_t ns_since_origin(Clock::time_point t) const;
  std::uint32_t thread_index();

  std::atomic<bool> enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::uint32_t> threads_;  ///< hashed thread id -> index
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t id = 0, std::int64_t parent = -1)
      : tracer_(tracer), index_(tracer.begin(name, id, parent)) {}
  ~Scope() { tracer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t index() const { return index_; }

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

}  // namespace perfbench
