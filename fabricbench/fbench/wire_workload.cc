// wire_echo: the wire runtime (src/wire) on the real clock. The triangle
// fabric (3 switches, 2 hosts each, UDS sockets) runs as 9 node threads, which
// is how the runtime is built; the load comes from this one thread: a closed
// loop of echo pings between hosts on different switches over their cached
// routes, then a few failover drills.
//
// The whole process runs pinned to one CPU. Each ping crosses ~10 threads; on
// a VM a wakeup on another CPU costs more than the runtime's own work on the
// hop and varies with what the host is doing (unpinned, the p50 RTT read 60 us
// on a busy machine and 115 us on an idle one). On one CPU every hop is a
// context switch, and the ping-pong reading that scales wall time into
// reference time (see common.h) is a pair of context switches on that CPU.
#include <sched.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fbench/common.h"
#include "src/analysis/contracts.h"
#include "src/telemetry/telemetry.h"
#include "src/wire/clock.h"
#include "src/wire/runtime.h"

namespace fabricbench {
namespace {

using namespace dumbnet;
using wire::MonotonicNowNs;
using wire::PingOutcome;
using wire::SleepNs;
using wire::WireFabric;

// Pings per timed step; tracing alternates per step in traced runs.
constexpr int kPingsPerStep = 64;
// RTT percentiles are taken per slice of this many pings (100 samples beyond
// the p99), and the reported figure is the median over slices: stalls on a
// shared machine come in bursts, and one burst should not move it.
constexpr size_t kSlicePings = 10000;
// The statistics window: the timed phase never ends with fewer pings than
// this (3 slices).
constexpr uint64_t kMinPings = 3 * kSlicePings;
// An RTT this long means a node slept in a whole-millisecond epoll_wait
// timeout while a protocol delay of a few us was pending.
constexpr int64_t kStalledRttNs = Ms(1);
constexpr TimeNs kPingTimeout = Sec(1);
constexpr int kDrills = 3;
// Switches suppress repeat alarms on a port for 1 s; drills on one port must
// be further apart than that or the kill goes unannounced.
constexpr TimeNs kAlarmQuiet = Ms(1200);

// Same triangle as dumbnet-net and bench/wire_latency: every inter-switch pair
// directly linked, so a detour always exists.
Topology MakeTriangle() {
  Topology topo;
  const uint32_t s0 = topo.AddSwitch(8);
  const uint32_t s1 = topo.AddSwitch(8);
  const uint32_t s2 = topo.AddSwitch(8);
  (void)topo.ConnectSwitches(s0, 1, s1, 1);
  (void)topo.ConnectSwitches(s1, 2, s2, 1);
  (void)topo.ConnectSwitches(s2, 2, s0, 2);
  for (uint32_t sw : {s0, s1, s2}) {
    for (PortNum port = 3; port <= 4; ++port) {
      (void)topo.AttachHost(topo.AddHost(), sw, port);
    }
  }
  return topo;
}

struct Pair {
  uint32_t src;
  uint32_t dst;
  uint64_t flow;
};

struct WireSetup {
  WireSetup() = default;
  WireSetup(const WireSetup&) = delete;
  WireSetup& operator=(const WireSetup&) = delete;
  ~WireSetup() { Close(); }

  // Stops every node thread and removes the socket directory.
  void Close() {
    if (fabric != nullptr) {
      fabric->Shutdown();
      fabric.reset();
    }
    if (!uds_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(uds_dir, ec);
      uds_dir.clear();
    }
    pairs.clear();
  }

  std::string uds_dir;
  std::unique_ptr<WireFabric> fabric;
  std::vector<Pair> pairs;
  double bring_up_s = 0.0;
  int64_t ready_at_ns = 0;
};

void SetUpWire(const Options& opts, int rep, Tracer* tracer, Report& report, WireSetup& s) {
  // Relative to the checkout, which keeps socket paths short and inside it.
  s.uds_dir = std::string(kWorkDir) + "/wire" + std::to_string(::getpid()) + "-" +
              std::to_string(rep);
  std::error_code ec;
  std::filesystem::remove_all(s.uds_dir, ec);
  std::filesystem::create_directories(s.uds_dir, ec);
  wire::WireFabricOptions fopts;
  fopts.node.uds_dir = s.uds_dir;
  fopts.node.disc_config.max_ports = 8;
  fopts.node.disc_config.probe_timeout = Ms(50);
  fopts.discovery_timeout = Sec(20);
  s.fabric = std::make_unique<WireFabric>(MakeTriangle(), fopts);
  const int64_t t0 = NowNs();
  Status status = s.fabric->Start();
  if (status.ok()) {
    Span span(tracer, Layer::kBringUp);
    status = s.fabric->RunDiscovery();
  }
  s.bring_up_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (!status.ok()) {
    report.Fail("wire bring-up failed: " + status.ToString());
    return;
  }
  s.ready_at_ns = MonotonicNowNs();
  // Host h sits on switch h / 2; the pairs are every ordered pair of hosts on
  // different switches, in an order shuffled by the seed.
  const uint32_t hosts = static_cast<uint32_t>(s.fabric->host_count());
  for (uint32_t a = 0; a < hosts; ++a) {
    for (uint32_t b = 0; b < hosts; ++b) {
      if (a / 2 != b / 2) {
        s.pairs.push_back(Pair{a, b, s.pairs.size() + 1});
      }
    }
  }
  Rng rng(SplitMix64(opts.seed ^ 0x3C40).Next());
  rng.Shuffle(s.pairs);
  // Warm every pair's route (the first ping of a flow queries the controller).
  for (const Pair& p : s.pairs) {
    bool ok = false;
    for (int i = 0; i < 5 && !ok; ++i) {
      ok = s.fabric->Ping(p.src, p.dst, p.flow, Sec(2)).ok;
    }
    if (!ok) {
      report.Fail("could not warm the route from host " + std::to_string(p.src) + " to " +
                  std::to_string(p.dst));
      return;
    }
  }
}

// The protocol counters of every node, read on the node threads.
Counters ReadCounters(WireFabric& fabric) {
  Counters c;
  auto add = [&c](const char* name, uint64_t v) { c[name] += static_cast<double>(v); };
  for (uint32_t h = 0; h < fabric.host_count(); ++h) {
    const HostAgentStats st = fabric.HostStats(h);
    add("host.data_blocked", st.data_blocked);
    add("host.path_requests", st.path_requests);
    add("host.verify_failures", st.verify_failures);
    add("host.link_repairs", st.link_repairs);
    add("host.floods_sent", st.floods_sent);
    add("host.patches_applied", st.patches_applied);
    add("host.path_divergence", st.path_divergence);
    wire::WireNode& node = fabric.host_node(h);
    add("sim.events", node.Call([&node] { return node.net()->sim().executed_events(); }));
    if (node.controller() != nullptr) {
      const ControllerStats ctrl = node.Call([&node] { return node.controller()->stats(); });
      add("ctrl.queries_served", ctrl.queries_served);
      add("ctrl.queries_failed", ctrl.queries_failed);
      add("ctrl.patches_sent", ctrl.patches_sent);
    }
  }
  for (uint32_t s = 0; s < fabric.switch_count(); ++s) {
    wire::WireNode& node = fabric.switch_node(s);
    const DumbSwitchStats st = node.Call([&node] { return node.dumb_switch()->stats(); });
    add("switch.forwarded", st.forwarded);
    add("switch.notifications_relayed", st.notifications_relayed);
    add("switch.alarms_suppressed", st.alarms_suppressed);
    add("sim.events", node.Call([&node] { return node.net()->sim().executed_events(); }));
  }
  return c;
}

// Kills the link a warmed flow uses and times, on the wall clock, how long
// until a ping gets through again. Returns the gap in ns, or -1.
int64_t Drill(WireFabric& fabric, LinkIndex victim, uint64_t flow, uint64_t* timeouts) {
  bool warmed = false;
  for (int i = 0; i < 5 && !warmed; ++i) {
    warmed = fabric.Ping(0, 2, flow, Sec(2)).ok;
  }
  if (!warmed) {
    return -1;
  }
  const int64_t killed_at = MonotonicNowNs();
  fabric.KillLink(victim);
  const int64_t deadline = killed_at + Sec(15);
  while (MonotonicNowNs() < deadline) {
    // A 20 ms timeout, as in bench/wire_latency: the gap is bounded by it.
    const PingOutcome out = fabric.Ping(0, 2, flow, Ms(20));
    if (out.ok) {
      return MonotonicNowNs() - killed_at;
    }
    ++*timeouts;
  }
  return -1;
}

// Pins the calling thread, and so every thread it starts later, to the first
// CPU it may run on. Returns the CPU, or -1 when affinity cannot be set.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
    }
  }
  return -1;
}

}  // namespace

void RunWireEcho(const Options& opts, Report& report) {
  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    report.Fail("could not pin the wire fabric to one CPU");
    return;
  }
  // 24 flows in all: one in 4 keeps its full spans.
  std::unique_ptr<Tracer> tracer = MakeTracer(opts, 4);
  // Contracts are enforced for the whole run, and must all read 0 at the end.
  contracts::SetEnabled(true);
  telemetry::SetEnabled(opts.trace);
  WireSetup s;
  SetupTimes setup_times;
  while (SetUpAgain(opts, setup_times)) {
    s.Close();  // tear the previous fabric down outside the timer
    const int64_t t0 = NowNs();
    const int64_t cpu0 = CpuNs();
    SetUpWire(opts, static_cast<int>(setup_times.wall_s.size()), tracer.get(), report, s);
    setup_times.Add(static_cast<double>(NowNs() - t0) / 1e9,
                    static_cast<double>(CpuNs() - cpu0) / 1e9);
    if (!report.correct()) {
      return;
    }
  }
  WireFabric& fabric = *s.fabric;
  std::printf("fabric: wire triangle, %zu switches, %zu hosts, %zu node threads, %zu pairs, "
              "all on cpu %d\n",
              fabric.switch_count(), fabric.host_count(),
              fabric.switch_count() + fabric.host_count(), s.pairs.size(), cpu);

  const Counters before = ReadCounters(fabric);
  // wire.oneway_ns and wire.tx_packets then cover the timed phase only.
  telemetry::MetricsRegistry::Global().Reset();
  std::vector<double> rtt_us;
  std::vector<double> slice_us;
  std::vector<double> slice_p50;  // wall
  std::vector<double> slice_p99;
  std::vector<double> ref_p50;    // reference time
  std::vector<double> ref_p99;
  uint64_t pings = 0;
  uint64_t timeouts = 0;
  size_t next_pair = 0;
  Counters after;
  telemetry::RegistrySnapshot reg_after;
  uint64_t window_pings = 0;
  uint64_t stalled = 0;  // in the statistics window
  // Each echoed ping is two data packets delivered: the request and its echo.
  Slices slices([&] { return 2 * static_cast<uint64_t>(rtt_us.size()); });
  const TimedLoop loop = RunTimed(
      opts.seconds, tracer.get(),
      [&](bool) {
        for (int i = 0; i < kPingsPerStep; ++i) {
          const Pair& p = s.pairs[next_pair];
          next_pair = (next_pair + 1) % s.pairs.size();
          PingOutcome out;
          {
            Span span(tracer.get(), Layer::kWirePing, p.flow);
            out = fabric.Ping(p.src, p.dst, p.flow, kPingTimeout);
          }
          ++pings;
          if (out.ok && pings <= kMinPings && out.rtt_ns >= kStalledRttNs) {
            ++stalled;
          }
          if (out.ok) {
            rtt_us.push_back(static_cast<double>(out.rtt_ns) / 1e3);
            slice_us.push_back(rtt_us.back());
            if (slice_us.size() == kSlicePings) {
              const double pp = slices.Probe();
              slice_p50.push_back(TailPercentile(slice_us, 50.0)->value);
              slice_p99.push_back(TailPercentile(slice_us, 99.0)->value);
              ref_p50.push_back(ToReferenceTime(slice_p50.back(), pp));
              ref_p99.push_back(ToReferenceTime(slice_p99.back(), pp));
              slice_us.clear();
            }
          } else {
            ++timeouts;
          }
        }
        return static_cast<uint64_t>(kPingsPerStep);
      },
      [&] { return pings >= kMinPings; },
      [&] {
        after = ReadCounters(fabric);
        reg_after = telemetry::MetricsRegistry::Global().Snapshot();
        window_pings = pings;
      },
      &slices);
  const uint64_t ok_pings = rtt_us.size();
  report.attempted = pings;
  report.failed = timeouts;
  if (timeouts != 0) {
    report.Fail(std::to_string(timeouts) + " pings got no echo");
  }

  // Failover drills, outside the timed phase. Host 0 (switch 0) pings host 2
  // (switch 1); each drill kills whichever of switch 0's two uplinks the flow
  // rides after the previous repair.
  const int64_t quiet_until = s.ready_at_ns + kAlarmQuiet;
  if (MonotonicNowNs() < quiet_until) {
    SleepNs(quiet_until - MonotonicNowNs());
  }
  const LinkIndex victims[2] = {fabric.topo().LinkAtPort(0, 1), fabric.topo().LinkAtPort(0, 2)};
  std::vector<double> gaps_ms;
  uint64_t drill_timeouts = 0;
  for (int d = 0; d < kDrills; ++d) {
    const LinkIndex victim = victims[d % 2];
    const int64_t gap = Drill(fabric, victim, 1000 + static_cast<uint64_t>(d), &drill_timeouts);
    if (gap < 0) {
      report.Fail("failover drill " + std::to_string(d) + " never recovered");
      break;
    }
    gaps_ms.push_back(static_cast<double>(gap) / 1e6);
    fabric.ReviveLink(victim);
    SleepNs(kAlarmQuiet + Ms(300));
  }
  const double failover_ms = Median(gaps_ms);

  // After the last revive, every pair must echo again, with in-band path
  // provenance armed so any divergence from the promised path shows.
  telemetry::SetEnabled(true);
  for (const Pair& p : s.pairs) {
    if (!fabric.Ping(p.src, p.dst, p.flow, Sec(2)).ok) {
      report.Fail("no echo from host " + std::to_string(p.dst) + " to host " +
                  std::to_string(p.src) + " after the drills");
      break;
    }
  }
  telemetry::SetEnabled(opts.trace);
  const Counters end = ReadCounters(fabric);
  const double divergence = end.at("host.path_divergence");
  if (divergence != 0) {
    report.Fail(std::to_string(static_cast<uint64_t>(divergence)) +
                " pings took another path than promised");
  }
  s.Close();
  contracts::SetEnabled(false);
  const contracts::CounterSnapshot contract_counts = contracts::Counters();
  if (contract_counts.hot_allocs != 0 || contract_counts.rank_inversions != 0 ||
      contract_counts.reactor_blocks != 0) {
    report.Fail("contracts: hot_allocs=" + std::to_string(contract_counts.hot_allocs) +
                " rank_inversions=" + std::to_string(contract_counts.rank_inversions) +
                " reactor_blocks=" + std::to_string(contract_counts.reactor_blocks) + ": " +
                contracts::LastViolationMessage());
  }

  // The wire set-up mostly waits on the runtime's timers (probe timeouts,
  // hello handshakes), not on the CPU, so it stays in wall time.
  setup_times.Print();
  slices.Print();
  report.Set("setup_s", Median(setup_times.wall_s));
  report.Set("peak_rss_mb", loop.window_rss_mb);
  report.Set("delivered_pps", slices.MedianRate());
  report.Set("delivered_ratio",
             Ratio{static_cast<double>(ok_pings), static_cast<double>(pings)}.value());
  const std::optional<Percentile> p99 = TailPercentile(rtt_us, 99.0);
  std::printf("echo RTT: median over %zu slices of %zu pings: p50 %.3f us, p99 %.3f us "
              "(reference time), p50 %.3f us, p99 %.3f us (wall); over all %zu pings: "
              "p99 %.3f us (wall)\n",
              ref_p99.size(), kSlicePings, Median(ref_p50), Median(ref_p99), Median(slice_p50),
              Median(slice_p99), rtt_us.size(), p99 ? p99->value : 0.0);
  report.Set("latency_p50_us", Median(ref_p50));
  report.Set("latency_p99_us", Median(ref_p99));
  std::printf("wire: %" PRIu64 " pings in %.2f wall s, failover gaps (ms):", pings, loop.wall_s);
  for (double g : gaps_ms) {
    std::printf(" %.2f", g);
  }
  std::printf(" -> wire_failover_ms %.2f; contracts hot_allocs=%" PRIu64
              " rank_inversions=%" PRIu64 " reactor_blocks=%" PRIu64 "\n",
              failover_ms, contract_counts.hot_allocs, contract_counts.rank_inversions,
              contract_counts.reactor_blocks);
  if (tracer == nullptr) {
    return;
  }

  // Per-packet work from the statistics window (the first kMinPings pings of
  // the timed phase, all echoed); failure handling from the whole timed phase
  // and the drills.
  Counters timed = after - before;
  Counters all = end - before;
  for (const char* name : {"switch.forwarded", "host.data_blocked", "host.path_requests",
                           "host.verify_failures", "ctrl.queries_served",
                           "ctrl.queries_failed"}) {
    report.Set(name, timed[name]);
  }
  for (const char* name : {"switch.notifications_relayed", "switch.alarms_suppressed",
                           "host.link_repairs", "host.floods_sent", "host.patches_applied",
                           "host.path_divergence", "ctrl.patches_sent"}) {
    report.Set(name, all[name]);
  }
  const auto window = static_cast<double>(window_pings);
  const Ratio events_per_pkt{timed["sim.events"], 2.0 * window};
  const Ratio frames_per_ping{reg_after.Value("wire.tx_packets"), window};
  report.Set("sim.events", timed["sim.events"]);
  report.Set("sim.events_per_pkt", events_per_pkt.value());
  report.Set("ctrl.bring_up_s", s.bring_up_s);
  const telemetry::MetricValue* oneway = reg_after.Find("wire.oneway_ns");
  report.Set("wire.oneway_ns_p50", oneway != nullptr ? oneway->histogram.Percentile(50) : 0.0);
  report.Set("wire.frames_per_ping", frames_per_ping.value());
  report.Set("wire.stalled_pings", static_cast<double>(stalled));
  report.Set("wire.ping_timeouts", static_cast<double>(timeouts + drill_timeouts));
  report.Set("wire.failover_ms", failover_ms);
  report.Set("contracts.hot_allocs", static_cast<double>(contract_counts.hot_allocs));
  report.Set("trace.overhead_ratio", loop.OverheadRatio());
  std::printf("ratio bases: sim.events_per_pkt %s (node events/data packets), "
              "wire.frames_per_ping %s (frames sent/pings)\n",
              events_per_pkt.Describe().c_str(), frames_per_ping.Describe().c_str());
  WriteTrace(opts, *tracer);
}

}  // namespace fabricbench
