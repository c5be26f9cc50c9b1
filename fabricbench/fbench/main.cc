// fabricbench: one command that runs a named workload from a seed, checks its
// outputs, and prints every metric by name with its unit. The last line of
// stdout is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "fbench/workloads.h"
#include "src/analysis/contracts.h"
#include "src/core/fabric.h"
#include "src/sim/footprint.h"
#include "src/telemetry/telemetry.h"

namespace fabricbench {

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::printf("check failed: %s\n", why.c_str());
  std::fflush(stdout);
}

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload dataplane_steady|cold_flow_setup|link_churn|wire_echo\n"
               "          --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

void PrintEnvironment() {
#ifdef DUMBNET_AUDIT_ENABLED
  const bool audits = true;
#else
  const bool audits = false;
#endif
  std::printf(
      "env: nproc=%u build=%s audits=%s telemetry=%s footprints=%s contracts=%s "
      "default_shards=%u shard_threads=%u%s\n",
      std::thread::hardware_concurrency(), FABRICBENCH_BUILD_TYPE, audits ? "on" : "off",
      dumbnet::telemetry::kCompiledIn ? "on" : "off",
      dumbnet::footprint::kCompiledIn ? "on" : "off",
      dumbnet::contracts::kCompiledIn ? "on" : "off",
      dumbnet::SimulatedFabric::DefaultShards(),
      dumbnet::SimulatedFabric::DefaultShardThreads(),
      dumbnet::SimulatedFabric::DefaultShardThreads() == 0 ? " (0 = min(shards, nproc))"
                                                            : "");
}

void PrintResult(Report& report, bool trace) {
  std::string body;
  auto emit = [&](const MetricSpec& spec) {
    auto it = report.values().find(spec.name);
    double v = it != report.values().end() ? it->second : 0.0;
    if (it == report.values().end() && !trace) {
      report.Fail(std::string("end-to-end metric ") + spec.name + " was not measured");
    }
    if (!std::isfinite(v)) {
      report.Fail(std::string("metric ") + spec.name + " is not finite");
      v = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", spec.name, v, spec.unit);
    body += buf;
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) {
      emit(spec);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      emit(spec);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              report.correct() ? "true" : "false", report.attempted, report.failed,
              body.c_str());
}

}  // namespace
}  // namespace fabricbench

int main(int argc, char** argv) {
  using namespace fabricbench;
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage(argv[0]);
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      opts.trace = std::strtol(value, &end, 10) != 0;
    } else {
      return Usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || !(opts.seconds > 0.0)) {
    return Usage(argv[0]);
  }
  void (*run)(const Options&, Report&) = nullptr;
  if (opts.workload == "dataplane_steady") {
    run = RunDataplaneSteady;
  } else if (opts.workload == "cold_flow_setup") {
    run = RunColdFlowSetup;
  } else if (opts.workload == "link_churn") {
    run = RunLinkChurn;
  } else if (opts.workload == "wire_echo") {
    run = RunWireEcho;
  } else {
    return Usage(argv[0]);
  }
  std::error_code ec;
  std::filesystem::create_directories(kWorkDir, ec);
  if (ec) {
    std::fprintf(stderr, "fabricbench: cannot create %s: %s\n", kWorkDir,
                 ec.message().c_str());
    return 2;
  }
  std::printf("workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n", opts.workload.c_str(),
              opts.seed, opts.seconds, opts.trace ? 1 : 0);
  PrintEnvironment();
  std::fflush(stdout);
  Report report;
  run(opts, report);
  PrintResult(report, opts.trace);
  return 0;
}
