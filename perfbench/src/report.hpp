// What one benchmark run prints: host and run metadata, every metric by
// name with its unit and sample count, the output checks, and, as the last
// line of standard output, the one JSON object the driver reads:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace perfbench {

/// A metric BENCHMARK.json declares.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The metrics BENCHMARK.json declares, in its order. Every workload prints
/// all of them (end-to-end with --trace 0, per-layer with --trace 1).
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// The seven detector names `api.detect_ms.<detector>` covers.
const std::vector<std::string>& detector_metric_names();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::size_t samples = 0;
  std::string detail;  ///< quartiles, the tail percentile, or a ratio's base
};

class Report {
 public:
  void meta(const std::string& key, const std::string& value);
  void meta(const std::string& key, double value);

  /// Records a metric (end-to-end or per-layer by name).
  void metric(const std::string& name, const std::string& unit, double value,
              std::size_t samples, std::string detail = {});
  /// A timing metric from its summary: value = p50, detail = quartiles + tail.
  void timing(const std::string& name, const Summary& s);
  /// A ratio, printed with its part and base.
  void ratio(const std::string& name, const Ratio& r, std::size_t samples,
             const std::string& unit = "ratio");

  /// Copies the per-layer metrics this report lacks from `other`, their
  /// detail prefixed with `source`.
  void adopt_per_layer(const Report& other, const std::string& source);

  /// An output check; a failed one makes the run incorrect (exit 1).
  void check(bool ok, const std::string& what);
  bool correct() const { return failed_checks_ == 0; }

  void count_attempts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Human-readable lines, then the final JSON line with the metric set
  /// `trace` selects. A declared metric nothing measured prints as 0
  /// (listed as "not measured"); one recorded with another unit than
  /// declared fails the run.
  void print(std::ostream& os, bool trace);

 private:
  const Metric* find(const std::string& name) const;

  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<Metric> metrics_;
  std::vector<std::string> check_lines_;
  std::size_t failed_checks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Shortest round-trip decimal form of a double, valid as JSON (infinity,
/// a miss, prints as the largest finite double).
std::string json_number(double value);

/// Host facts for the metadata block.
struct HostInfo {
  unsigned nproc = 1;
  std::string cpu_model;
  long l2_bytes = 0;
  long l3_bytes = 0;
};
HostInfo host_info();

/// Peak resident set of this process, in MB.
double self_peak_rss_mb();

}  // namespace perfbench
