// Self-tests for the benchmark's metric math: the percentile rule,
// failure-as-miss accounting, max_rate_qps backlog detection, trace self
// time, and the number format of the result line. Exit 0 when all pass.
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

using namespace perfbench;

void percentile_rule() {
  // Linear interpolation at q * (n - 1).
  const std::vector<double> sorted = {1, 2, 3, 4, 5};
  EXPECT(near(quantile_sorted(sorted, 0.5), 3));
  EXPECT(near(quantile_sorted(sorted, 0.25), 2));
  EXPECT(near(quantile_sorted(sorted, 0.9), 4.6));
  EXPECT(std::isnan(quantile_sorted({}, 0.5)));

  // The tail percentile is the highest with at least ten samples beyond it.
  EXPECT(tail_percentile(10000) == 99.9);
  EXPECT(tail_percentile(9999) == 99.0);
  EXPECT(tail_percentile(1000) == 99.0);
  EXPECT(tail_percentile(999) == 95.0);
  EXPECT(tail_percentile(200) == 95.0);
  EXPECT(tail_percentile(100) == 90.0);
  EXPECT(tail_percentile(99) == 75.0);
  EXPECT(tail_percentile(40) == 75.0);
  EXPECT(tail_percentile(39) == 50.0);

  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const Summary s = summarize(samples);
  EXPECT(s.count == 100);
  EXPECT(s.tail_percentile == 90.0);
  EXPECT(near(s.p50, 50.5));
  EXPECT(near(s.tail, 90.1));
  EXPECT(near(s.beyond_tail, 10));
  // A pinned percentile is kept even when the samples cannot support it.
  const Summary pinned = summarize(samples, 99.0);
  EXPECT(pinned.tail_percentile == 99.0);
  EXPECT(near(pinned.beyond_tail, 1));
}

void failure_as_miss() {
  // Two failures in 100 sit above the p99 position: the p99 is a miss,
  // so it fails any latency limit, while the median is untouched.
  std::vector<double> two(98, 10.0);
  two.push_back(kMiss);
  two.push_back(kMiss);
  const Summary s = summarize(two, 99.0);
  EXPECT(std::isinf(s.tail));
  EXPECT(near(s.p50, 10));
  // One failure in 100: interpolating towards it is a miss as well.
  std::vector<double> one(99, 10.0);
  one.push_back(kMiss);
  EXPECT(std::isinf(summarize(one, 99.0).tail));
  // No failure: the p99 is finite.
  std::vector<double> none;
  for (int i = 0; i < 100; ++i) none.push_back(static_cast<double>(i));
  EXPECT(near(summarize(none, 99.0).tail, 98.01));
}

std::vector<double> uniform(std::size_t n, double rate, double offset = 0) {
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(offset + static_cast<double>(i) / rate);
  return out;
}

void backlog_and_max_rate() {
  // Rates over the middle half of the events.
  EXPECT(near(middle_half_rate(uniform(1000, 500)), 500));
  EXPECT(middle_half_rate(uniform(7, 500)) == 0);
  // A slow last request (a quantum query finishing late) does not move it.
  std::vector<double> tail = uniform(1000, 500);
  tail.back() += 2.0;
  EXPECT(near(middle_half_rate(tail), 500));

  const std::vector<double> fast(1000, 5.0), lateness(1000, 0.1);
  const std::vector<double> due = uniform(1000, 1000);
  // Keeping up: every request completes 5 ms after it is due.
  const std::vector<double> on_time = uniform(1000, 1000, 0.005);
  Rung ok;
  judge_rung(ok, fast, lateness, due, on_time, 300, 2);
  EXPECT(ok.passes && ok.meets_limit && !ok.backlog_growing && !ok.generator_behind);
  EXPECT(near(ok.arrival_rate, 1000) && near(ok.completion_rate, 1000));
  EXPECT(ok.backlog_end == 5);
  // Overload: completions at 800/s behind arrivals at 1000/s.
  Rung backlog;
  judge_rung(backlog, fast, lateness, due, uniform(1000, 800, 0.005), 300, 2);
  EXPECT(!backlog.passes && backlog.backlog_growing && backlog.meets_limit);
  EXPECT(near(backlog.completion_rate, 800));
  // A burst that holds 100 requests for 150 ms and then drains is not a
  // growing backlog.
  std::vector<double> burst = on_time;
  for (std::size_t i = 300; i < 400; ++i) burst[i] = 0.45;
  Rung held;
  judge_rung(held, fast, lateness, due, burst, 300, 2);
  EXPECT(!held.backlog_growing);
  Rung slow;
  judge_rung(slow, std::vector<double>(1000, 301.0), lateness, due, on_time, 300, 2);
  EXPECT(!slow.passes && !slow.meets_limit);
  Rung late;
  judge_rung(late, fast, std::vector<double>(1000, 3.0), due, on_time, 300, 2);
  EXPECT(!late.passes && late.generator_behind);
  std::vector<double> with_misses = fast;
  for (int i = 0; i < 20; ++i) with_misses[static_cast<std::size_t>(i)] = kMiss;
  Rung missing;
  judge_rung(missing, with_misses, lateness, due, on_time, 300, 2);
  EXPECT(!missing.passes && missing.failed == 20);

  const auto step = [](double rate, bool passes, bool growing = false, double completed = 0) {
    Rung r;
    r.rate = rate;
    r.passes = passes;
    r.backlog_growing = growing;
    r.completion_rate = completed;
    return r;
  };
  EXPECT(max_sustained_rate({step(200, true), step(300, true), step(400, false)}) == 300);
  // A step above a failing one does not count.
  EXPECT(max_sustained_rate({step(200, true), step(300, false), step(400, true)}) == 200);
  EXPECT(max_sustained_rate({step(200, false), step(300, true)}) == 0);
  EXPECT(max_sustained_rate({step(200, true), step(300, true)}) == 300);
  // Saturated at the failing step: its throughput, clamped to the gap.
  EXPECT(max_sustained_rate({step(200, true), step(300, false, true, 260)}) == 260);
  EXPECT(max_sustained_rate({step(200, true), step(300, false, true, 150)}) == 200);
  EXPECT(max_sustained_rate({step(200, true), step(300, false, true, 420)}) == 300);
  // Failing on the p99 limit alone says nothing about saturation.
  EXPECT(max_sustained_rate({step(200, true), step(300, false, false, 290)}) == 200);
}

void trace_self_time() {
  std::vector<Span> spans(5);
  spans[0] = {"api.detect", 1, -1, 0, 10, 0};
  spans[1] = {"congest.construct", 1, 0, 1, 3, 0};
  spans[2] = {"core.colorbfs", 1, 0, 2, 5, 0};  // overlaps its sibling
  spans[3] = {"core.check", 1, 0, 8, 12, 0};    // runs past its parent
  spans[4] = {"congest.round", 1, 2, 3, 4, 0};
  const auto self = self_times_ns(spans);
  // Children cover [1, 5] and [8, 10] of the parent's [0, 10].
  EXPECT(self[0] == 4);
  EXPECT(self[1] == 2);
  EXPECT(self[2] == 2);  // 3 minus its child's 1
  EXPECT(self[3] == 4);
  EXPECT(self[4] == 1);
  const auto layers = layer_self_seconds(spans);
  EXPECT(near(layers.at("api"), 4e-9));
  EXPECT(near(layers.at("congest"), 3e-9));
  EXPECT(near(layers.at("core"), 6e-9));
  EXPECT(span_layer("service.rtt") == "service");

  // A disabled tracer records nothing; an enabled one writes trace events.
  Tracer off(false);
  EXPECT(off.begin("api.detect", 1) == -1);
  EXPECT(off.spans().empty());
  Tracer on(true);
  {
    Scope outer(on, "api.detect", 7);
    Scope inner(on, "congest.construct", 7, outer.index());
  }
  const auto recorded = on.spans();
  EXPECT(recorded.size() == 2 && recorded[1].parent == 0 && recorded[1].id == 7);
  std::ostringstream json;
  write_chrome_json(json, recorded);
  EXPECT(json.str().find("\"traceEvents\":[{\"name\":\"api.detect\"") != std::string::npos);
  EXPECT(json.str().find("\"ph\":\"X\"") != std::string::npos);
}

void rates_and_numbers() {
  // Each group's fastest decile, weighted by call count: one slowed call
  // does not move the rate.
  const std::vector<CallGroup> groups = {{100, {1.0, 1.0, 9.0}}, {10, {0.5}}};
  EXPECT(near(fast_rate(groups), (300.0 + 10.0) / (3.0 + 0.5)));
  // The fastest decile of {1, 2, 3, 4, 5, 6, 7, 8, 9, 10} is 1.9 s.
  const std::vector<CallGroup> ten = {{19, {10, 9, 8, 7, 6, 5, 4, 3, 2, 1}}};
  EXPECT(near(fast_rate(ten), 10.0));
  EXPECT(fast_rate({}) == 0);
  EXPECT((Ratio{3, 4}.value() == 0.75));
  EXPECT((Ratio{3, 0}.value() == 0));

  EXPECT(json_number(0.1) == "0.1");
  EXPECT(json_number(1234.5678) == "1234.5678");
  EXPECT(json_number(kMiss) == "1.7976931348623157e+308");
  Digest a, b;
  a.add("ab");
  a.add("c");
  b.add("a");
  b.add("bc");
  EXPECT(a.value() != b.value());
  EXPECT(a.hex().size() == 16);
}

}  // namespace

int main() {
  percentile_rule();
  failure_as_miss();
  backlog_and_max_rate();
  trace_self_time();
  rates_and_numbers();
  std::printf("perfbench self-tests: %s (%d failures)\n", failures == 0 ? "passed" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
