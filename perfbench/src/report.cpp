#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},          {"latency_ms_p50", "ms"}, {"latency_ms_tail", "ms"},
      {"rounds_per_s", "1/s"},   {"msgs_per_s", "1/s"},    {"msgs_per_s_t1", "1/s"},
      {"max_rate_qps", "1/s"},   {"ok_share", "ratio"},    {"peak_rss_mb", "MB"}};
  return metrics;
}

const std::vector<std::string>& detector_metric_names() {
  static const std::vector<std::string> names = {
      "even-cycle",   "bounded-cycle", "baseline-local-threshold", "baseline-flooding",
      "derandomized", "quantum",       "engine-color-bfs"};
  return names;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> metrics = [] {
    std::vector<MetricSpec> out = {
        {"graph.generate_ms", "ms"},       {"graph.edges", "count"},
        {"congest.construct_ms", "ms"},    {"congest.rounds", "count"},
        {"congest.messages", "count"},     {"congest.msgs_per_round", "msgs/round"},
        {"congest.active_share", "ratio"}, {"congest.us_per_round", "us"},
        {"congest.ns_per_msg", "ns"},      {"congest.compute_s", "s"},
        {"congest.deliver_s", "s"},        {"congest.finalize_s", "s"},
        {"congest.idle_s", "s"},           {"congest.steals", "count"},
        {"congest.idle_share", "ratio"},   {"congest.peak_arena_bytes", "bytes"},
        {"core.colorbfs_ms", "ms"},        {"core.rejecting_nodes", "count"}};
    for (const auto& detector : detector_metric_names())
      out.push_back({"api.detect_ms." + detector, "ms"});
    const std::vector<MetricSpec> rest = {
        {"quantum.base_runs", "count"},         {"service.rtt_ms", "ms"},
        {"service.server_ms", "ms"},            {"service.transport_ms", "ms"},
        {"service.protocol_ms", "ms"},          {"service.queue_wait_ms_p50", "ms"},
        {"service.queue_wait_ms_p99", "ms"},    {"service.cache_hit_share", "ratio"},
        {"service.cache_evictions", "count"},   {"service.shed", "count"},
        {"service.lateness_ms", "ms"},          {"self_s.graph", "s"},
        {"self_s.congest", "s"},                {"self_s.core", "s"},
        {"self_s.api", "s"},                    {"self_s.service", "s"},
        {"self_s.bench", "s"},                  {"tracing.overhead_share", "ratio"}};
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
  }();
  return metrics;
}

std::string json_number(double value) {
  if (std::isnan(value)) value = 0;
  if (std::isinf(value))
    value = value > 0 ? std::numeric_limits<double>::max() : std::numeric_limits<double>::lowest();
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, ec == std::errc() ? end : buf);
}

void Report::meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, value);
}

void Report::meta(const std::string& key, double value) { meta_.emplace_back(key, json_number(value)); }

void Report::metric(const std::string& name, const std::string& unit, double value,
                    std::size_t samples, std::string detail) {
  metrics_.push_back(Metric{name, unit, value, samples, std::move(detail)});
}

void Report::timing(const std::string& name, const Summary& s) {
  std::ostringstream detail;
  detail << "p25 " << json_number(s.p25) << " p75 " << json_number(s.p75);
  if (s.tail_percentile > 75)
    detail << " p" << s.tail_percentile << " " << json_number(s.tail) << " (" << s.beyond_tail
           << " samples beyond)";
  metric(name, "ms", s.p50, s.count, detail.str());
}

void Report::ratio(const std::string& name, const Ratio& r, std::size_t samples,
                   const std::string& unit) {
  metric(name, unit, r.value(), samples, json_number(r.part) + " of " + json_number(r.base));
}

void Report::adopt_per_layer(const Report& other, const std::string& source) {
  for (const auto& spec : per_layer_metrics()) {
    const Metric* theirs = other.find(spec.name);
    if (find(spec.name) != nullptr || theirs == nullptr) continue;
    Metric copy = *theirs;
    copy.detail = source + (copy.detail.empty() ? "" : ": " + copy.detail);
    metrics_.push_back(std::move(copy));
  }
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) ++failed_checks_;
  check_lines_.push_back(std::string(ok ? "ok   " : "FAIL ") + what);
}

const Metric* Report::find(const std::string& name) const {
  for (const auto& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

void Report::print(std::ostream& os, bool trace) {
  const auto& declared = trace ? per_layer_metrics() : end_to_end_metrics();
  std::vector<std::string> not_measured;
  for (const auto& spec : declared) {
    const Metric* m = find(spec.name);
    if (m == nullptr) not_measured.push_back(spec.name);
    else if (m->unit != spec.unit)
      check(false, spec.name + " recorded in " + m->unit + ", declared in " + spec.unit);
  }
  os << "== run\n";
  for (const auto& [key, value] : meta_) os << "  " << key << ": " << value << "\n";
  os << "== checks\n";
  for (const auto& line : check_lines_) os << "  " << line << "\n";
  os << "== metrics (name value unit samples detail)\n";
  for (const auto& m : metrics_)
    os << "  " << m.name << " " << json_number(m.value) << " " << m.unit << " n=" << m.samples
       << (m.detail.empty() ? "" : "  " + m.detail) << "\n";
  if (!not_measured.empty()) {
    os << "  not measured (printed as 0):";
    for (const auto& name : not_measured) os << " " << name;
    os << "\n";
  }
  os << "  attempted " << attempted_ << ", failed " << failed_ << "\n";

  os << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": "
     << attempted_ << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < declared.size(); ++i) {
    const Metric* m = find(declared[i].name);
    os << (i ? ", " : "") << "\"" << declared[i].name << "\": {\"value\": "
       << json_number(m != nullptr ? m->value : 0.0) << ", \"unit\": \"" << declared[i].unit
       << "\"}";
  }
  os << "}}" << std::endl;
}

HostInfo host_info() {
  HostInfo info;
  info.nproc = static_cast<unsigned>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
  info.l2_bytes = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  info.l3_bytes = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000002, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      __get_cpuid(0x80000003, &regs[4], &regs[5], &regs[6], &regs[7]) &&
      __get_cpuid(0x80000004, &regs[8], &regs[9], &regs[10], &regs[11])) {
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    info.cpu_model = brand;
    const auto first = info.cpu_model.find_first_not_of(' ');
    info.cpu_model = first == std::string::npos ? "" : info.cpu_model.substr(first);
  }
#endif
  if (info.cpu_model.empty()) info.cpu_model = "unknown";
  return info;
}

double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
