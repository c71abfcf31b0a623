// Metric math shared by every workload: the percentile rule, failure-as-miss
// latency accounting, the open-loop rate ladder, and ratio bookkeeping.
// Pure functions over samples, so the self-tests pin them exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// Latency value recorded for a request that failed, was refused, or never
/// completed: it sorts above every real latency and misses every limit.
inline constexpr double kMiss = std::numeric_limits<double>::infinity();

/// Linear-interpolation quantile (q in [0, 1]) of an ascending-sorted
/// vector: position q * (n - 1), as numpy's default. NaN when empty.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// The highest percentile in {99.9, 99, 95, 90, 75, 50} that has at least
/// ten samples beyond it among n samples; 50 when none has.
double tail_percentile(std::size_t n);

/// A timing distribution as reported: sample count, quartiles, and one
/// tail percentile with how many samples lie beyond it.
struct Summary {
  std::size_t count = 0;
  double p25 = 0, p50 = 0, p75 = 0;
  double tail_percentile = 50;  ///< which percentile `tail` is
  double tail = 0;
  double beyond_tail = 0;  ///< samples beyond the tail percentile, n * (1 - q)
};

/// Summarizes samples. `fixed_tail` > 0 pins the tail percentile (a metric
/// whose name carries its percentile); 0 applies tail_percentile(n).
Summary summarize(std::vector<double> samples, double fixed_tail = 0);

/// One step of an open-loop rate ladder.
struct Rung {
  double rate = 0;          ///< offered requests per second
  std::size_t requests = 0; ///< requests scheduled in the step
  std::size_t failed = 0;   ///< non-ok results, transport errors, sheds
  Summary latency;          ///< ms from due time, failures as misses
  Summary lateness;         ///< ms the generator ran behind the schedule
  double arrival_rate = 0;     ///< requests due per second, middle half of the step
  double completion_rate = 0;  ///< requests completed per second, middle half
  double backlog_end = 0;      ///< requests due but unfinished at the last due time
  bool backlog_growing = false;   ///< completions fell behind arrivals
  bool generator_behind = false;  ///< the step is invalid
  bool meets_limit = false;       ///< p99 within the limit
  bool passes = false;
};

/// Events per second over the middle half of a set of event times: the
/// slope of a least-squares line through (sorted time, rank) for the ranks
/// between the first and third quartile. A long request finishing last, or
/// the first requests meeting an empty queue, do not move it. 0 when there
/// are fewer than 8 events.
double middle_half_rate(std::vector<double> times_s);

/// Completions keep up when their rate is at least this share of the
/// arrival rate; below it the backlog grows for the whole step.
inline constexpr double kKeepUp = 0.9;

/// Fills a rung's verdict fields from per-request due and completion times
/// (seconds, one clock). The step passes when its p99 (failures as misses)
/// is within `limit_ms`, its backlog does not grow (completion rate at
/// least kKeepUp times the arrival rate), and the generator kept to the
/// schedule (median lateness within `max_lateness_ms`; its p99 is
/// reported, as tail jitter is scheduling noise already counted in every
/// latency).
void judge_rung(Rung& rung, const std::vector<double>& latency_ms,
                const std::vector<double>& lateness_ms, const std::vector<double>& due_s,
                const std::vector<double>& done_s, double limit_ms, double max_lateness_ms);

/// max_rate_qps of an ascending ladder: the rate of the highest step of
/// its passing prefix (a step above a failing one does not count). When
/// the first failing step failed because its backlog grew, the system was
/// saturated there and its completion rate is what it sustains: the
/// result is that rate clamped to [passing rate, failing rate], so the
/// metric moves between steps instead of jumping. 0 when the lowest step
/// fails.
double max_sustained_rate(const std::vector<Rung>& ladder);

/// Work per second over groups of identical calls, each call's time taken
/// as the fastest decile of its group's times (kFastQuantile):
/// sum(work * n) / sum(t_fast * n). On a shared host other tenants slow a
/// share of the calls that changes from minute to minute; the median and
/// the tail move with that share, the fastest decile follows the program.
struct CallGroup {
  double work_per_call = 0;
  std::vector<double> seconds;
};
inline constexpr double kFastQuantile = 0.1;
double fast_rate(const std::vector<CallGroup>& groups);

/// A ratio reported with its base.
struct Ratio {
  double part = 0;
  double base = 0;
  double value() const { return base > 0 ? part / base : 0.0; }
};

/// FNV-1a accumulator for payload digests.
class Digest {
 public:
  void add(const std::string& bytes);
  std::uint64_t value() const { return hash_; }
  std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
