// engine-sparse: a closed loop of sequential api::detect calls with the
// message-level engine-color-bfs detector at thread budget nproc, cycling
// a fixed list of tori (which contain C_2k) and large-girth graphs (which
// are C_2k-free by construction). Only a handful of messages move per
// round across thousands of rounds, so the time is the engine's per-round
// fixed cost. See perfbench/README.md for why each workload exists.
#include <algorithm>
#include <utility>

#include "workloads.hpp"

namespace perfbench {

namespace ec = evencycle;

namespace {

struct Entry {
  const char* family;
  std::uint64_t nodes;
  std::uint32_t k;
  std::uint32_t repeat;  ///< calls per pass; small graphs repeat so a run has 100+ calls
  bool has_cycle;        ///< the family's construction decides C_2k membership
};

// One pass (24 calls) takes 4-7 s at 4 threads on the reference host. The
// repeats place the percentiles inside groups of like calls, not on the
// gap between two groups, where a small change of speed or of the call
// count moves them by the whole gap: the eight calls on 4k-node k = 2
// graphs (about 4k rounds, 100-130 ms) hold the p50, the four on 16k-node
// graphs (0.8-1 s) the p90. With the p50 on the 1k-node k = 2 calls (2k
// rounds, 15-40 ms, of which worker-pool start-up is a large share) it
// spread 40% across five seeds on the reference host.
const std::vector<Entry> kEntries = {
    {"torus", 1024, 2, 4, true},        {"large-girth", 1024, 2, 4, false},
    {"torus", 4096, 2, 4, true},        {"large-girth", 4096, 2, 4, false},
    {"torus", 16384, 2, 2, true},       {"large-girth", 16384, 2, 2, false},
    {"torus", 1024, 3, 1, true},        {"large-girth", 1024, 3, 1, false},
    {"torus", 2048, 3, 1, true},        {"large-girth", 2048, 3, 1, false},
};
const std::vector<Entry> kSmokeEntries = {
    {"torus", 64, 2, 2, true},
    {"large-girth", 64, 2, 2, false},
    {"torus", 64, 3, 1, true},
    {"large-girth", 64, 3, 1, false},
};

struct Target {
  Entry entry;
  ec::api::GraphHandle graph;
  std::uint64_t detect_seed = 0;
  std::string payload;  ///< first call's budget-free payload; later calls must match
};

struct Sample {
  std::size_t target = 0;
  double ms = 0;
  std::uint64_t rounds = 0, messages = 0;
};

/// One engine-color-bfs detect call on a target, in an api.detect span.
ec::api::DetectionResult call(Run& run, const Target& t, std::uint32_t threads, std::uint64_t id,
                              std::int64_t parent) {
  ec::api::DetectionRequest request;
  request.detector = "engine-color-bfs";
  request.k = t.entry.k;
  request.seed = t.detect_seed;
  request.threads = threads;
  Scope span(run.tracer, "api.detect", id, parent);
  return ec::api::detect(t.graph, request);
}

/// Generates every graph of the list and warms the allocator and code
/// paths with one call on each of the first two graphs. Returns the targets.
std::vector<Target> set_up(Run& run, const std::vector<Entry>& entries,
                           std::vector<double>* generate_ms) {
  std::vector<Target> targets;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Target t;
    t.entry = entries[i];
    const ec::api::GraphSpec spec{entries[i].family, entries[i].nodes, entries[i].k,
                                  mix_seed(run.options.seed, 100 + i)};
    const auto t0 = Clock::now();
    {
      Scope span(run.tracer, "graph.generate", i);
      t.graph = ec::api::GraphHandle::generate(spec);
    }
    generate_ms->push_back(ms_between(t0, Clock::now()));
    t.detect_seed = mix_seed(run.options.seed, 200 + i);
    targets.push_back(std::move(t));
  }
  for (std::size_t i = 0; i < 2 && i < targets.size(); ++i)
    call(run, targets[i], run.options.nproc, i, -1);
  return targets;
}

}  // namespace

void run_engine_sparse(Run& run) {
  Report& report = run.report;
  const auto& entries = run.options.smoke ? kSmokeEntries : kEntries;
  const std::uint32_t nproc = run.options.nproc;

  // Set-up, kSetupRepeats times; the last set of graphs is kept.
  std::vector<double> setup_s, generate_ms;
  std::vector<Target> targets;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    generate_ms.clear();
    const auto t0 = Clock::now();
    targets = set_up(run, entries, &generate_ms);
    setup_s.push_back(seconds_since(t0));
  }
  double vertices = 0, edges = 0;
  for (const auto& t : targets) {
    vertices += t.graph.graph().vertex_count();
    edges += static_cast<double>(t.graph.graph().edge_count());
  }
  report.meta("working_set", std::to_string(targets.size()) + " graphs, " +
                                 json_number(vertices) + " vertices, " + json_number(edges) +
                                 " edges");

  // Besides the calls at thread budget nproc, a pass makes kT1Repeat calls
  // at thread budget 1 on each of the smallest graphs of the smallest k:
  // the single-threaded cost of the same sparse traffic (its payload must
  // not change either). These calls take about 30 ms, so a run has dozens
  // of them per graph; the k = 3 graphs would give a run three or four.
  // Every group of calls (a graph at one thread budget) is spread evenly
  // over the pass, so each samples the whole run, not one stretch of it.
  constexpr std::uint32_t kT1Repeat = 8;
  struct Slot {
    std::size_t target;
    bool t1;
    double position;  ///< in [0, 1): where in the pass the call goes
  };
  std::vector<Slot> order;
  const auto spread = [&](std::size_t i, bool t1, std::uint32_t repeat) {
    for (std::uint32_t r = 0; r < repeat; ++r)
      order.push_back(Slot{i, t1, (r + 0.5) / static_cast<double>(repeat)});
  };
  for (std::size_t i = 0; i < targets.size(); ++i) {
    spread(i, false, targets[i].entry.repeat);
    if (std::none_of(targets.begin(), targets.end(), [&](const Target& o) {
          return std::make_pair(o.entry.k, o.entry.nodes) <
                 std::make_pair(targets[i].entry.k, targets[i].entry.nodes);
        }))
      spread(i, true, kT1Repeat);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Slot& a, const Slot& b) { return a.position < b.position; });

  std::uint64_t attempted = 0, failed = 0, call_id = 0;
  bool payloads_stable = true, false_positive = false, t1_identical = true;
  std::vector<CallGroup> t1_msgs(targets.size());
  // Whole passes only, so every run samples the list in the same
  // proportions: stop at the pass boundary nearest to the time budget, but
  // not before five untraced passes (120 calls, so the p90 has ten beyond
  // it however slow the host is). The traced run alternates untraced and
  // traced passes, so both see the same mix of fast and slow phases of a
  // shared host.
  std::vector<Sample> samples;
  std::vector<double> traced_ms;
  const double budget = run.options.smoke ? 0.0 : run.options.seconds;
  const auto start = Clock::now();
  double pass_s = 0;
  // The traced run reports no p90, so two passes of each kind do.
  const int min_passes = run.options.smoke ? 1 : run.options.trace ? 2 : 5;
  for (int pass = 0; pass < (run.options.trace ? 2 * min_passes : min_passes) ||
                     seconds_since(start) + pass_s / 2 < budget;
       ++pass) {
    const bool traced = run.options.trace && pass % 2 == 1;
    run.tracer.set_enabled(traced);
    const auto pass_start = Clock::now();
    Scope pass_span(run.tracer, "bench.pass", call_id);
    for (const Slot& slot : order) {
      const std::size_t i = slot.target;
      Target& t = targets[i];
      const auto t0 = Clock::now();
      const auto result = call(run, t, slot.t1 ? 1 : nproc, call_id++, pass_span.index());
      const double ms = ms_between(t0, Clock::now());
      if (slot.t1) {
        t1_msgs[i].seconds.push_back(ms / 1e3);
        t1_msgs[i].work_per_call = static_cast<double>(result.messages);
        if (result.ok() && t.payload.empty()) t.payload = budget_free_payload(result);
        t1_identical = t1_identical && result.ok() && budget_free_payload(result) == t.payload;
        continue;
      }
      ++attempted;
      if (!result.ok()) {
        ++failed;
        continue;
      }
      if (traced) traced_ms.push_back(ms);
      else samples.push_back(Sample{i, ms, result.rounds_measured, result.messages});
      const std::string payload = budget_free_payload(result);
      if (t.payload.empty()) t.payload = payload;
      payloads_stable = payloads_stable && payload == t.payload;
      false_positive = false_positive || (result.detected && !t.entry.has_cycle);
    }
    pass_s = seconds_since(pass_start);
  }
  run.tracer.set_enabled(false);
  std::size_t t1_calls = 0;
  for (const auto& group : t1_msgs) t1_calls += group.seconds.size();

  // Outside the timed loop: replay each graph's request layer by layer and
  // check the engine against the phase-level reference.
  run.tracer.set_enabled(run.options.trace);
  CongestTotals totals;
  std::vector<double> colorbfs_ms;
  double rejecting = 0;
  bool sets_equal = true, replay_matches = true;
  Digest digest;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    Target& t = targets[i];
    const auto replay = replay_engine_color_bfs(run, t.graph.graph(), t.entry.k, t.detect_seed,
                                                nproc, call_id++, totals);
    colorbfs_ms.push_back(replay.colorbfs_ms);
    rejecting += static_cast<double>(replay.rejecting.size());
    sets_equal = sets_equal && replay.sets_equal;
    replay_matches =
        replay_matches && payload_matches_replay(call(run, t, nproc, call_id++, -1), replay);
    digest.add(t.graph.name());
    digest.add(t.payload);
  }
  run.tracer.set_enabled(false);

  report.check(attempted > 0 && failed == 0, "every detect call returned ok");
  report.check(!false_positive, "no detection on a large-girth (C_2k-free) graph");
  report.check(payloads_stable, "repeated calls on a graph return byte-identical payloads");
  report.check(t1_identical, "payloads identical at thread budgets 1 and nproc (resolved_threads aside)");
  report.check(sets_equal, "engine rejection sets equal phase-level core::run_color_bfs");
  report.check(replay_matches, "api payloads agree with the layer-by-layer replay");
  report.meta("payload_digest", digest.hex());
  report.count_attempts(attempted, failed);

  // Rates take the fastest decile of each graph's call times (fast_rate).
  std::vector<double> ms;
  std::vector<CallGroup> rounds(targets.size()), messages(targets.size()), calls(targets.size());
  for (const auto& s : samples) {
    ms.push_back(s.ms);
    rounds[s.target].work_per_call = static_cast<double>(s.rounds);
    messages[s.target].work_per_call = static_cast<double>(s.messages);
    calls[s.target].work_per_call = 1;
    for (auto* group : {&rounds[s.target], &messages[s.target], &calls[s.target]})
      group->seconds.push_back(s.ms / 1e3);
  }
  const Summary latency = summarize(ms, 90.0);
  report.metric("setup_s", "s", summarize(setup_s).p50, setup_s.size());
  report.timing("latency_ms_p50", latency);
  report.metric("latency_ms_tail", "ms", latency.tail, latency.count,
                "p90 of detect calls, " + json_number(latency.beyond_tail) + " samples beyond");
  report.metric("rounds_per_s", "1/s", fast_rate(rounds), samples.size(),
                "simulated rounds per second of detect calls");
  report.metric("msgs_per_s", "1/s", fast_rate(messages), samples.size(),
                "messages per second of detect calls");
  report.metric("msgs_per_s_t1", "1/s", fast_rate(t1_msgs), t1_calls,
                "thread budget 1 on the smallest graphs of the smallest k");
  report.metric("max_rate_qps", "1/s", fast_rate(calls), samples.size(),
                "closed loop, one caller: detect calls per second");
  report.ratio("ok_share",
               Ratio{static_cast<double>(attempted - failed), static_cast<double>(attempted)},
               attempted);
  report.metric("peak_rss_mb", "MB", self_peak_rss_mb(), 1);

  if (run.options.trace) {
    report_graph(report, generate_ms, edges);
    report_congest(report, totals);
    report.timing("core.colorbfs_ms", summarize(colorbfs_ms));
    report.metric("core.rejecting_nodes", "count", rejecting, targets.size());
    report.timing("api.detect_ms.engine-color-bfs", summarize(traced_ms));
    report_overhead(report, latency.p50, summarize(traced_ms).p50);
  }
}

}  // namespace perfbench
