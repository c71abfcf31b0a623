#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // A miss on either side makes the interpolated value a miss, too (and
  // keeps inf * 0 from turning into NaN).
  if (std::isinf(sorted[hi]) && frac > 0) return kMiss;
  if (std::isinf(sorted[lo])) return kMiss;
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0})
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9) return p;
  return 50.0;
}

Summary summarize(std::vector<double> samples, double fixed_tail) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p25 = quantile_sorted(samples, 0.25);
  s.p50 = quantile_sorted(samples, 0.50);
  s.p75 = quantile_sorted(samples, 0.75);
  s.tail_percentile = fixed_tail > 0 ? fixed_tail : tail_percentile(samples.size());
  s.tail = quantile_sorted(samples, s.tail_percentile / 100.0);
  s.beyond_tail = static_cast<double>(samples.size()) * (1.0 - s.tail_percentile / 100.0);
  return s;
}

double middle_half_rate(std::vector<double> times_s) {
  if (times_s.size() < 8) return 0;
  std::sort(times_s.begin(), times_s.end());
  const std::size_t lo = times_s.size() / 4, hi = 3 * times_s.size() / 4;
  const double n = static_cast<double>(hi - lo);
  double mean_t = 0, mean_r = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    mean_t += times_s[i] / n;
    mean_r += static_cast<double>(i) / n;
  }
  double cov = 0, var = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    cov += (times_s[i] - mean_t) * (static_cast<double>(i) - mean_r);
    var += (times_s[i] - mean_t) * (times_s[i] - mean_t);
  }
  return var > 0 ? cov / var : 0;
}

void judge_rung(Rung& rung, const std::vector<double>& latency_ms,
                const std::vector<double>& lateness_ms, const std::vector<double>& due_s,
                const std::vector<double>& done_s, double limit_ms, double max_lateness_ms) {
  rung.requests = latency_ms.size();
  rung.failed = static_cast<std::size_t>(
      std::count_if(latency_ms.begin(), latency_ms.end(), [](double v) { return std::isinf(v); }));
  rung.latency = summarize(latency_ms, 99.0);
  rung.lateness = summarize(lateness_ms, 99.0);
  rung.arrival_rate = middle_half_rate(due_s);
  rung.completion_rate = middle_half_rate(done_s);
  const double last_due = due_s.empty() ? 0 : *std::max_element(due_s.begin(), due_s.end());
  rung.backlog_end = static_cast<double>(
      std::count_if(done_s.begin(), done_s.end(), [&](double t) { return t > last_due; }));
  rung.backlog_growing = rung.completion_rate < kKeepUp * rung.arrival_rate;
  rung.generator_behind = !lateness_ms.empty() && rung.lateness.p50 > max_lateness_ms;
  rung.meets_limit = !latency_ms.empty() && rung.latency.tail <= limit_ms;
  rung.passes = rung.meets_limit && !rung.backlog_growing && !rung.generator_behind;
}

double max_sustained_rate(const std::vector<Rung>& ladder) {
  double best = 0;
  for (const auto& rung : ladder) {
    if (rung.passes) {
      best = rung.rate;
      continue;
    }
    if (best > 0 && rung.backlog_growing)
      best = std::clamp(rung.completion_rate, best, rung.rate);
    break;
  }
  return best;
}

double fast_rate(const std::vector<CallGroup>& groups) {
  double work = 0, seconds = 0;
  for (const auto& g : groups) {
    if (g.seconds.empty()) continue;
    const double n = static_cast<double>(g.seconds.size());
    std::vector<double> sorted = g.seconds;
    std::sort(sorted.begin(), sorted.end());
    work += g.work_per_call * n;
    seconds += quantile_sorted(sorted, kFastQuantile) * n;
  }
  return seconds > 0 ? work / seconds : 0.0;
}

void Digest::add(const std::string& bytes) {
  for (const unsigned char c : bytes) {
    hash_ ^= c;
    hash_ *= 0x100000001b3ULL;
  }
  // Separator so ("ab", "c") and ("a", "bc") digest differently.
  hash_ ^= 0xFF;
  hash_ *= 0x100000001b3ULL;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash_));
  return buf;
}

}  // namespace perfbench
