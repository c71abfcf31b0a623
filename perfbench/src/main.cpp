// perfbench: the repository benchmark driver.
//
//   perfbench --workload engine-sparse|engine-dense|service-mixed
//             --seed N --seconds S --trace 0|1 [--smoke]
//             [--server-bin PATH] [--out-dir DIR]
//             [--build-type T] [--git-commit C]
//
// Prints run metadata, the output checks and every metric with its unit
// and sample count; the last line is the JSON result object. Exits 1 when
// an output check fails, 2 on a usage error.
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

/// Median time of a fixed integer loop on this thread, in ms: a gauge of
/// the host's speed, printed before and after the workload so runs taken
/// while other tenants slowed the host can be told apart.
double host_loop_ms() {
  std::vector<double> ms;
  for (int rep = 0; rep < 15; ++rep) {
    volatile std::uint64_t sink = 0;
    const auto t0 = perfbench::Clock::now();
    for (std::uint64_t i = 0; i < 10'000'000; ++i) sink = sink + i * 7;
    ms.push_back(perfbench::ms_between(t0, perfbench::Clock::now()));
  }
  return perfbench::summarize(ms).p50;
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload engine-sparse|engine-dense|service-mixed"
               " --seed N --seconds S --trace 0|1 [--smoke] [--server-bin PATH]"
               " [--out-dir DIR] [--build-type T] [--git-commit C]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Run run;
  Options& o = run.options;
  std::string build_type = "unknown", git_commit = "unknown";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") o.workload = value();
      else if (arg == "--seed") o.seed = std::stoull(value());
      else if (arg == "--seconds") o.seconds = std::stod(value());
      else if (arg == "--trace") o.trace = std::stoi(value()) != 0;
      else if (arg == "--smoke") o.smoke = true;
      else if (arg == "--server-bin") o.server_bin = value();
      else if (arg == "--out-dir") o.out_dir = value();
      else if (arg == "--build-type") build_type = value();
      else if (arg == "--git-commit") git_commit = value();
      else return usage("unknown argument " + arg);
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (o.seconds <= 0) return usage("--seconds must be positive");

  const HostInfo host = host_info();
  o.nproc = host.nproc;
  run.tracer.set_enabled(o.trace);
  Report& report = run.report;
  report.meta("workload", o.workload);
  report.meta("seed", std::to_string(o.seed));
  report.meta("seconds", o.seconds);
  report.meta("trace", o.trace ? "1" : "0");
  report.meta("smoke", o.smoke ? "1" : "0");
  report.meta("nproc", static_cast<double>(host.nproc));
  report.meta("cpu_model", host.cpu_model);
  report.meta("l2_bytes", static_cast<double>(host.l2_bytes));
  report.meta("l3_bytes", static_cast<double>(host.l3_bytes));
  report.meta("build_type", build_type);
  report.meta("git_commit", git_commit);

  report.meta("host_loop_ms_before", host_loop_ms());
  try {
    if (o.workload == "engine-sparse") run_engine_sparse(run);
    else if (o.workload == "engine-dense") run_engine_dense(run);
    else if (o.workload == "service-mixed") run_service_mixed(run);
    else return usage("unknown workload '" + o.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  report.meta("host_loop_ms_after", host_loop_ms());

  if (o.trace) {
    std::vector<perfbench::Span> spans = run.tracer.spans();
    if (o.workload != "service-mixed") {
      // The engine workloads do not touch the api palette, quantum or the
      // service (engine-dense not core either): a smoke-size service-mixed
      // run in this process measures those layers, so every per-layer
      // metric of a traced run is a measurement; their lines say so.
      perfbench::Run sampler;
      sampler.options = o;
      sampler.options.workload = "service-mixed";
      sampler.options.smoke = true;
      sampler.tracer.set_enabled(true);
      try {
        perfbench::run_service_mixed(sampler);
      } catch (const std::exception& e) {
        std::cerr << "perfbench: layer sampler failed: " << e.what() << "\n";
        return 1;
      }
      report.check(sampler.report.correct(), "checks of the smoke service-mixed layer sampler");
      report.adopt_per_layer(sampler.report, "smoke service-mixed sampler");
      const auto offset = static_cast<std::int64_t>(spans.size());
      for (auto span : sampler.tracer.spans()) {
        if (span.parent >= 0) span.parent += offset;
        spans.push_back(std::move(span));
      }
    }
    const std::string file = o.out_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) +
                             (o.smoke ? "-smoke" : "") + ".json";
    std::ofstream out(file);
    perfbench::write_chrome_json(out, spans);
    report.check(static_cast<bool>(out), "trace written to " + file);
    const auto self = layer_self_seconds(spans);
    for (const char* layer : {"graph", "congest", "core", "api", "service", "bench"}) {
      const auto it = self.find(layer);
      report.metric(std::string("self_s.") + layer, "s", it == self.end() ? 0.0 : it->second,
                    spans.size());
    }
  }
  report.print(std::cout, o.trace);
  return report.correct() ? 0 : 1;
}
