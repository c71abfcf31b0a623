// engine-dense: congest::Network running FloodShardProgram (every vertex
// sends on every arc every round) on random_near_regular(n, 4), in
// alternating blocks at one thread and at nproc threads. Time goes to send staging, radix
// deliver and the mailbox arena: the same engine as engine-sparse at the
// opposite traffic extreme. See perfbench/README.md.
#include <algorithm>
#include <memory>

#include "congest/workloads.hpp"
#include "graph/generators.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ec = evencycle;

namespace {

// 16k vertices keep the working set (CSR plus two mailbox arenas, about
// 2.5 MB) near the per-core L2. On the reference host, whose L3 other
// tenants share, the round times at 50k vertices split into a fast and a
// slow mode (the upper quartile 50-140% above the lower), and at 200k
// throughput swung 2x between processes. At 16k a round still moves 64k
// messages, so message handling, not the round's fixed cost, sets its time.
constexpr ec::graph::VertexId kNodes = 16'384;
constexpr ec::graph::VertexId kSmokeNodes = 2'000;
constexpr int kWarmupRounds = 10;

struct Phase {
  std::vector<double> round_ms;
  double wall_s = 0;
  std::uint64_t rounds = 0, messages = 0;
};

std::unique_ptr<ec::congest::Network> make_network(const ec::graph::Graph& g,
                                                   std::uint32_t threads, bool phase_timings) {
  ec::congest::Config config;
  config.threads = threads;
  config.collect_phase_timings = phase_timings;
  auto net = std::make_unique<ec::congest::Network>(g, config);
  net->install(std::make_shared<ec::congest::FloodShardProgram>());
  return net;
}

/// Runs `rounds` flood rounds, timing each, and adds them to `phase`.
void flood(Run& run, ec::congest::Network& net, std::uint64_t rounds, std::uint64_t span_id,
           Phase& phase) {
  const std::uint64_t rounds0 = net.metrics().rounds, messages0 = net.metrics().messages;
  const auto start = Clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    {
      Scope span(run.tracer, "congest.round", span_id);
      net.run_round();
    }
    phase.round_ms.push_back(ms_between(t0, Clock::now()));
  }
  phase.wall_s += seconds_since(start);
  phase.rounds += net.metrics().rounds - rounds0;
  phase.messages += net.metrics().messages - messages0;
}

/// Alternates blocks of rounds on the given engines until `budget_s`
/// elapsed (at least `min_blocks` blocks each), so every engine sees the
/// same mix of fast and slow phases of a shared host. A block is sized to
/// take about a quarter second at its engine's measured speed. Spans are
/// recorded only in the blocks of engines marked traced.
void alternate(Run& run, const std::vector<ec::congest::Network*>& nets,
               const std::vector<bool>& traced, double budget_s, int min_blocks,
               std::vector<Phase>& phases) {
  constexpr double kBlockSeconds = 0.25;
  std::vector<std::uint64_t> block(nets.size(), 4);
  const auto start = Clock::now();
  for (int b = 0; b < min_blocks || seconds_since(start) < budget_s; ++b) {
    for (std::size_t i = 0; i < nets.size(); ++i) {
      run.tracer.set_enabled(traced[i]);
      const auto t0 = Clock::now();
      flood(run, *nets[i], block[i], i, phases[i]);
      const double per_round = seconds_since(t0) / static_cast<double>(block[i]);
      block[i] = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(kBlockSeconds / per_round));
    }
  }
  run.tracer.set_enabled(false);
}

}  // namespace

void run_engine_dense(Run& run) {
  Report& report = run.report;
  const std::uint32_t nproc = run.options.nproc;
  const ec::graph::VertexId n = run.options.smoke ? kSmokeNodes : kNodes;

  // Set-up, kSetupRepeats times: generate the graph, build both engines (worker
  // pools included) and run warm-up rounds so arenas reach their size.
  std::vector<double> setup_s, generate_ms, construct_ms;
  std::unique_ptr<ec::graph::Graph> graph;
  std::unique_ptr<ec::congest::Network> net1, netp;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    netp.reset();
    net1.reset();
    const auto t0 = Clock::now();
    {
      Scope span(run.tracer, "graph.generate", rep);
      ec::Rng rng(mix_seed(run.options.seed, 300));
      graph = std::make_unique<ec::graph::Graph>(ec::graph::random_near_regular(n, 4, rng));
    }
    const auto t1 = Clock::now();
    {
      Scope span(run.tracer, "congest.construct", rep);
      net1 = make_network(*graph, 1, false);
    }
    const auto t2 = Clock::now();
    {
      Scope span(run.tracer, "congest.construct", rep);
      netp = make_network(*graph, nproc, false);
    }
    const auto t3 = Clock::now();
    net1->run_rounds(kWarmupRounds);
    netp->run_rounds(kWarmupRounds);
    setup_s.push_back(seconds_since(t0));
    generate_ms.push_back(ms_between(t0, t1));
    construct_ms.push_back(ms_between(t1, t2));
    construct_ms.push_back(ms_between(t2, t3));
  }
  const ec::graph::Graph& g = *graph;
  const double arcs = 2.0 * static_cast<double>(g.edge_count());
  report.meta("working_set", json_number(g.vertex_count()) + " vertices, " +
                                 json_number(static_cast<double>(g.edge_count())) +
                                 " edges, peak arena " +
                                 json_number(static_cast<double>(netp->metrics().peak_arena_bytes)) +
                                 " bytes");

  const double budget = run.options.smoke ? 0.0 : run.options.seconds;
  const int min_blocks = run.options.smoke ? 1 : 8;
  // Re-installing the program resets the counters and keeps the warmed-up
  // buffers. Blocks at one thread and at nproc alternate over the run; the
  // traced run adds a third engine with phase timings on, traced, so the
  // congest.* split is measured where the work happens (its cost is part
  // of the tracing overhead).
  std::vector<ec::congest::Network*> nets = {net1.get(), netp.get()};
  std::unique_ptr<ec::congest::Network> timed;
  if (run.options.trace) {
    timed = make_network(g, nproc, true);
    timed->run_rounds(kWarmupRounds);
    nets.push_back(timed.get());
  }
  for (auto* net : nets) net->install(std::make_shared<ec::congest::FloodShardProgram>());
  std::vector<Phase> phases(nets.size());
  alternate(run, nets, {false, false, true}, budget, min_blocks, phases);
  const Phase& t1 = phases[0];
  const Phase& tp = phases[1];

  CongestTotals totals;
  totals.construct_ms = construct_ms;
  if (timed) totals.add(timed->metrics(), g.vertex_count(), phases[2].wall_s);

  // Every arc carries one word per round, exactly.
  const auto exact = [&](const ec::congest::Network& net) {
    return static_cast<double>(net.metrics().messages) ==
           static_cast<double>(net.metrics().rounds) * arcs;
  };
  report.check(exact(*net1) && exact(*netp), "flood messages == rounds x 2m at 1 and nproc threads");
  report.check(net1->metrics().peak_arena_bytes == netp->metrics().peak_arena_bytes &&
                   net1->metrics().busiest_round_messages ==
                       netp->metrics().busiest_round_messages,
               "deterministic engine counters equal at 1 and nproc threads");
  Digest digest;
  digest.add(std::to_string(ec::api::graph_content_hash(g)));
  digest.add(std::to_string(netp->metrics().busiest_round_messages));
  digest.add(std::to_string(netp->metrics().peak_arena_bytes));
  report.meta("payload_digest", digest.hex());
  std::uint64_t attempted = 0;
  for (const auto& phase : phases) attempted += phase.rounds;
  report.count_attempts(attempted, 0);
  report.check(attempted > 0, "rounds ran");

  // Rates from the fastest decile of round times (kFastQuantile): rounds
  // slowed by other tenants move the median and the tail, not the rate.
  // Latency is per round at one thread: a round at nproc threads waits for
  // the slowest of them, so any one vCPU the host takes away slows it,
  // and its median moved twice as much from run to run as at one thread.
  // The tail is the p90: the p99 of millisecond rounds measures the
  // hypervisor's preemptions (its spread across runs on the reference
  // host was 58%), not the engine.
  const Summary latency = summarize(t1.round_ms, 90.0);
  const auto rounds_per_s = [](const Phase& phase) {
    std::vector<double> seconds;
    for (const double ms : phase.round_ms) seconds.push_back(ms / 1e3);
    return fast_rate({CallGroup{1.0, seconds}});
  };
  const double rps = rounds_per_s(tp);
  const double rps_t1 = rounds_per_s(t1);
  report.metric("setup_s", "s", summarize(setup_s).p50, setup_s.size());
  report.timing("latency_ms_p50", latency);
  report.metric("latency_ms_tail", "ms", latency.tail, latency.count,
                "p90 of rounds at 1 thread, " + json_number(latency.beyond_tail) +
                    " samples beyond");
  report.metric("rounds_per_s", "1/s", rps, tp.rounds,
                "nproc threads, from the fastest decile of rounds");
  report.metric("msgs_per_s", "1/s", rps * arcs, tp.rounds,
                json_number(arcs) + " messages a round at nproc threads; mean over the phase " +
                    json_number(static_cast<double>(tp.messages) / tp.wall_s));
  report.metric("msgs_per_s_t1", "1/s", rps_t1 * arcs, t1.rounds,
                json_number(arcs) + " messages a round at 1 thread; mean over the phase " +
                    json_number(static_cast<double>(t1.messages) / t1.wall_s));
  report.metric("max_rate_qps", "1/s", rps, tp.rounds,
                "closed loop: rounds per second at nproc threads");
  report.ratio("ok_share", Ratio{static_cast<double>(attempted), static_cast<double>(attempted)},
               attempted);
  report.metric("peak_rss_mb", "MB", self_peak_rss_mb(), 1);

  if (run.options.trace) {
    report_graph(report, generate_ms, static_cast<double>(g.edge_count()));
    report_congest(report, totals);
    report_overhead(report, summarize(tp.round_ms).p50, summarize(phases[2].round_ms).p50);
  }
}

}  // namespace perfbench
