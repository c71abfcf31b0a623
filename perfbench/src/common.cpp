#include <algorithm>

#include "core/color_bfs.hpp"
#include "core/engine_color_bfs.hpp"
#include "core/params.hpp"
#include "harness/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ec = evencycle;

namespace {

/// Metrics::reduce_seconds is slated to become finalize_seconds; read
/// whichever the library has, so the benchmark builds on both sides of
/// that rename and can measure it.
template <class M>
double finalize_seconds(const M& m) {
  if constexpr (requires { m.finalize_seconds; })
    return m.finalize_seconds;
  else
    return m.reduce_seconds;
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string payload_of(const ec::api::DetectionResult& result) {
  return ec::harness::to_json(ec::api::result_to_json(result, /*with_timing=*/false));
}

std::string budget_free_payload(ec::api::DetectionResult result) {
  std::erase_if(result.extra, [](const auto& kv) { return kv.first == "resolved_threads"; });
  return payload_of(result);
}

void CongestTotals::add(const ec::congest::Metrics& m, std::uint64_t vertices,
                        double wall_seconds) {
  ++runs;
  rounds += m.rounds;
  messages += m.messages;
  vertex_rounds += static_cast<double>(vertices) * static_cast<double>(m.rounds);
  wall_s += wall_seconds;
  compute_s += m.compute_seconds;
  deliver_s += m.deliver_seconds;
  finalize_s += finalize_seconds(m);
  idle_s += m.idle_seconds;
  steals += m.steal_count;
  peak_arena_bytes = std::max(peak_arena_bytes, m.peak_arena_bytes);
}

void report_congest(Report& report, const CongestTotals& t) {
  const auto n = static_cast<std::size_t>(t.runs);
  report.timing("congest.construct_ms", summarize(t.construct_ms));
  report.metric("congest.rounds", "count", static_cast<double>(t.rounds), n);
  report.metric("congest.messages", "count", static_cast<double>(t.messages), n);
  report.ratio("congest.msgs_per_round",
               Ratio{static_cast<double>(t.messages), static_cast<double>(t.rounds)}, n,
               "msgs/round");
  report.ratio("congest.active_share", Ratio{static_cast<double>(t.messages), t.vertex_rounds}, n);
  const double rounds = static_cast<double>(t.rounds);
  const double messages = static_cast<double>(t.messages);
  report.metric("congest.us_per_round", "us", rounds > 0 ? t.wall_s * 1e6 / rounds : 0, n,
                "wall " + json_number(t.wall_s) + " s over " + json_number(rounds) + " rounds");
  report.metric("congest.ns_per_msg", "ns", messages > 0 ? t.wall_s * 1e9 / messages : 0, n,
                "wall " + json_number(t.wall_s) + " s over " + json_number(messages) + " msgs");
  report.metric("congest.compute_s", "s", t.compute_s, n);
  report.metric("congest.deliver_s", "s", t.deliver_s, n);
  report.metric("congest.finalize_s", "s", t.finalize_s, n);
  report.metric("congest.idle_s", "s", t.idle_s, n);
  report.metric("congest.steals", "count", static_cast<double>(t.steals), n);
  report.ratio("congest.idle_share",
               Ratio{t.idle_s, t.compute_s + t.deliver_s + t.finalize_s + t.idle_s}, n);
  report.metric("congest.peak_arena_bytes", "bytes", static_cast<double>(t.peak_arena_bytes), n);
}

EngineReplay replay_engine_color_bfs(Run& run, const ec::graph::Graph& g, std::uint32_t k,
                                     std::uint64_t seed, std::uint32_t threads,
                                     std::uint64_t span_id, CongestTotals& totals) {
  Scope replay_span(run.tracer, "bench.replay", span_id);
  const ec::graph::VertexId n = g.vertex_count();
  ec::Rng rng(seed);
  const auto params = ec::core::Params::practical(k, std::max<ec::graph::VertexId>(n, 4));
  const auto colors = ec::core::random_coloring(n, 2 * k, rng);
  ec::core::ColorBfsSpec spec;
  spec.cycle_length = 2 * k;
  spec.threshold = std::max<std::uint64_t>(params.threshold, 1);
  spec.colors = &colors;

  ec::congest::Config config;
  config.threads = threads;
  config.collect_phase_timings = run.options.trace;
  EngineReplay out;
  const auto t0 = Clock::now();
  std::int64_t span = run.tracer.begin("congest.construct", span_id, replay_span.index());
  ec::congest::Network net(g, config);
  run.tracer.end(span);
  const auto t1 = Clock::now();
  span = run.tracer.begin("core.colorbfs", span_id, replay_span.index());
  const auto engine = ec::core::run_color_bfs_on_engine(net, spec);
  run.tracer.end(span);
  const auto t2 = Clock::now();
  out.construct_ms = ms_between(t0, t1);
  out.colorbfs_ms = ms_between(t1, t2);
  out.rounds = engine.rounds;
  out.messages = engine.messages;
  out.rejecting = engine.rejecting_nodes;
  std::sort(out.rejecting.begin(), out.rejecting.end());
  totals.construct_ms.push_back(out.construct_ms);
  totals.add(net.metrics(), n, ms_between(t1, t2) / 1e3);

  Scope check_span(run.tracer, "core.phase_level", span_id, replay_span.index());
  ec::Rng unused(seed);
  auto phase = ec::core::run_color_bfs(g, spec, unused).rejecting_nodes;
  std::sort(phase.begin(), phase.end());
  out.sets_equal = phase == out.rejecting;
  return out;
}

bool payload_matches_replay(const ec::api::DetectionResult& result, const EngineReplay& replay) {
  double rejecting = -1;
  for (const auto& [key, value] : result.extra)
    if (key == "rejecting_nodes") rejecting = value;
  return result.ok() && result.detected == !replay.rejecting.empty() &&
         result.rounds_measured == replay.rounds && result.messages == replay.messages &&
         rejecting == static_cast<double>(replay.rejecting.size());
}

void report_graph(Report& report, const std::vector<double>& generate_ms, double edges) {
  report.timing("graph.generate_ms", summarize(generate_ms));
  report.metric("graph.edges", "count", edges, generate_ms.size());
}

void report_overhead(Report& report, double untraced_p50, double traced_p50) {
  report.metric("tracing.overhead_share", "ratio",
                untraced_p50 > 0 ? (traced_p50 - untraced_p50) / untraced_p50 : 0.0, 2,
                "traced p50 " + json_number(traced_p50) + " ms vs untraced " +
                    json_number(untraced_p50) + " ms");
}

}  // namespace perfbench
