#include "trace.hpp"

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {

std::string span_layer(const std::string& name) { return name.substr(0, name.find('.')); }

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const auto& span : spans) {
    if (span.parent < 0 || static_cast<std::size_t>(span.parent) >= spans.size()) continue;
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& covered = children[i];
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0, run_lo = 0, run_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        if (run_hi > run_lo) union_ns += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) union_ns += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, double> layer_self_seconds(const std::vector<Span>& spans) {
  const auto self = self_times_ns(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[span_layer(spans[i].name)] += static_cast<double>(self[i]) * 1e-9;
  return out;
}

std::int64_t Tracer::ns_since_origin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
}

std::uint32_t Tracer::thread_index() {
  const std::uint64_t key = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto [it, inserted] = threads_.emplace(key, static_cast<std::uint32_t>(threads_.size()));
  return it->second;
}

std::int64_t Tracer::begin(const char* name, std::uint64_t id, std::int64_t parent) {
  if (!enabled()) return -1;
  const std::int64_t now = ns_since_origin(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, id, parent, now, now, thread_index()});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::end(std::int64_t index) {
  if (index < 0) return;
  const std::int64_t now = ns_since_origin(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = now;
}

std::int64_t Tracer::record(const char* name, std::uint64_t id, std::int64_t parent,
                            Clock::time_point start, Clock::time_point end) {
  if (!enabled()) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(
      Span{name, id, parent, ns_since_origin(start), ns_since_origin(end), thread_index()});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Clock::time_point trace_origin() {
  static const Clock::time_point origin = Clock::now();
  return origin;
}

void write_chrome_json(std::ostream& os, const std::vector<Span>& all) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (i != 0) os << ",";
    // Span names are benchmark literals (no characters needing escapes).
    os << "{\"name\":\"" << s.name << "\",\"cat\":\"" << span_layer(s.name)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << s.start_ns / 1000
       << "." << (s.start_ns % 1000) / 100 << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000
       << "." << ((s.end_ns - s.start_ns) % 1000) / 100 << ",\"args\":{\"id\":" << s.id
       << ",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "]}\n";
}

}  // namespace perfbench
