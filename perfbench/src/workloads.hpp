// The three workloads and the helpers they share. Each workload drives the
// library only through its public headers, from outside: it generates its
// inputs from the seed, times calls into each layer, checks the outputs,
// and fills a Report.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "evencycle/api.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;        ///< tiny inputs: every workload and check in seconds
  std::string server_bin;    ///< the `evencycle` CLI (service-mixed runs `serve`)
  std::string out_dir = "."; ///< where the trace file and scratch files go
  unsigned nproc = 1;
};

/// Shared state of one run.
struct Run {
  Options options;
  Report report;
  Tracer tracer{false};
};

/// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 15;

/// Each runs one workload into run.report; failures to run at all throw.
void run_engine_sparse(Run& run);
void run_engine_dense(Run& run);
void run_service_mixed(Run& run);

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// SplitMix64 step: derives independent sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// The deterministic wire payload of a result (what `serve` puts under
/// "result"): api::result_to_json without timing, serialized.
std::string payload_of(const evencycle::api::DetectionResult& result);

/// The payload without extra.resolved_threads, the one member that tracks
/// the thread budget (the repository's own thread-budget tests exclude it
/// the same way). Thread-budget identity and digests compare this form.
std::string budget_free_payload(evencycle::api::DetectionResult result);

/// Engine counters summed over the runs a workload replays or times.
struct CongestTotals {
  std::uint64_t runs = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  double vertex_rounds = 0;  ///< sum of n * rounds: vertex visits a round sweep makes
  double wall_s = 0;         ///< wall time of the timed rounds
  double compute_s = 0, deliver_s = 0, finalize_s = 0, idle_s = 0;
  std::uint64_t steals = 0;
  std::uint64_t peak_arena_bytes = 0;
  std::vector<double> construct_ms;

  void add(const evencycle::congest::Metrics& m, std::uint64_t vertices, double wall_seconds);
};

/// Reports every congest.* per-layer metric from the totals.
void report_congest(Report& report, const CongestTotals& totals);

/// api::detect's engine-color-bfs recipe, replayed step by step so each
/// layer can be timed and checked: the coloring from the request seed, a
/// Network (timed: congest.construct), run_color_bfs_on_engine (timed:
/// core.colorbfs), and the phase-level core::run_color_bfs on the same
/// coloring, whose rejection set must equal the engine's.
struct EngineReplay {
  std::vector<evencycle::graph::VertexId> rejecting;  ///< sorted
  bool sets_equal = false;  ///< engine rejection set == phase-level set
  std::uint64_t rounds = 0, messages = 0;
  double construct_ms = 0, colorbfs_ms = 0;
};
EngineReplay replay_engine_color_bfs(Run& run, const evencycle::graph::Graph& g,
                                     std::uint32_t k, std::uint64_t seed, std::uint32_t threads,
                                     std::uint64_t span_id, CongestTotals& totals);

/// Checks an api payload against a replay of the same request: detected,
/// rounds, messages and the rejecting-node count must agree.
bool payload_matches_replay(const evencycle::api::DetectionResult& result,
                            const EngineReplay& replay);

/// Records graph.generate_ms / graph.edges from generation timings.
void report_graph(Report& report, const std::vector<double>& generate_ms, double edges);

/// Records tracing.overhead_share: the traced run's p50 of the workload's
/// operation over the untraced one's, minus one.
void report_overhead(Report& report, double untraced_p50, double traced_p50);

}  // namespace perfbench
