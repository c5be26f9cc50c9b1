// The four benchmark workloads and the report they fill in. Each workload is
// generated from the seed alone, driven by one load-generating thread, and
// checks its own outputs; see fabricbench/METRICS.md for what each reports.
#ifndef FABRICBENCH_FBENCH_WORKLOADS_H_
#define FABRICBENCH_FBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>

namespace fabricbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Scratch space inside the checkout, under the build tree: wire sockets and
// trace files.
inline constexpr const char* kWorkDir = ".bench_build/work";

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every metric of both tables, in this order;
// BENCHMARK.json lists the same names. What each one means on each workload is
// in fabricbench/METRICS.md.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},       {"delivered_pps", "1/s"},
    {"delivered_ratio", "ratio"}, {"latency_p50_us", "us"}, {"latency_p99_us", "us"},
};

// A layer metric a workload does not exercise reads 0.
inline constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_pkt", "ratio"},
    {"sim.run_self_ns_per_event", "ns"},
    {"sim.pool_slots", "count"},
    {"sim.windows", "count"},
    {"sim.cross_posts", "count"},
    {"net.delivered", "count"},
    {"net.dropped_queue_full", "count"},
    {"net.dropped_link_down", "count"},
    {"net.dropped_gray", "count"},
    {"switch.rx_ns_per_pkt", "ns"},
    {"switch.forwarded", "count"},
    {"switch.notifications_relayed", "count"},
    {"switch.notify_copies_per_event", "ratio"},
    {"switch.alarms_suppressed", "count"},
    {"host.send_ns_per_call", "ns"},
    {"host.rx_ns_per_pkt", "ns"},
    {"host.path_table_hit_ratio", "ratio"},
    {"host.data_blocked", "count"},
    {"host.path_requests", "count"},
    {"host.verify_failures", "count"},
    {"host.path_table_rebinds", "count"},
    {"host.backup_promotions", "count"},
    {"host.link_repairs", "count"},
    {"host.floods_sent", "count"},
    {"host.patches_applied", "count"},
    {"host.path_divergence", "count"},
    {"ctrl.bring_up_s", "s"},
    {"ctrl.rx_ns_per_pkt", "ns"},
    {"ctrl.queries_served", "count"},
    {"ctrl.queries_failed", "count"},
    {"ctrl.wire_cache_hit_ratio", "ratio"},
    {"ctrl.wire_cache_misses", "count"},
    {"ctrl.query_amplification", "ratio"},
    {"ctrl.sssp_cache_hit_ratio", "ratio"},
    {"ctrl.patches_sent", "count"},
    {"wire.oneway_ns_p50", "ns"},
    {"wire.frames_per_ping", "ratio"},
    {"wire.stalled_pings", "count"},
    {"wire.ping_timeouts", "count"},
    {"wire.failover_ms", "ms"},
    {"contracts.hot_allocs", "count"},
    {"chaos.actions", "count"},
    {"chaos.convergence_findings", "count"},
    {"trace.overhead_ratio", "ratio"},
};

class Report {
 public:
  // Marks the run incorrect; the reason goes to stdout.
  void Fail(const std::string& why);
  bool correct() const { return correct_; }

  // Records a metric of either table by name.
  void Set(const std::string& name, double value) { values_[name] = value; }
  const std::map<std::string, double>& values() const { return values_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  bool correct_ = true;
  std::map<std::string, double> values_;
};

void RunDataplaneSteady(const Options& opts, Report& report);
void RunColdFlowSetup(const Options& opts, Report& report);
void RunLinkChurn(const Options& opts, Report& report);
void RunWireEcho(const Options& opts, Report& report);

}  // namespace fabricbench

#endif  // FABRICBENCH_FBENCH_WORKLOADS_H_
