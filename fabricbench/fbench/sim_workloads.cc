// The three simulated workloads: dataplane_steady, cold_flow_setup and
// link_churn. Each drives a SimulatedFabric through its public API only and
// generates all of its inputs from the run seed.
//
// Time: "virtual" figures are simulated time and repeat exactly for a seed;
// set-up and delivery-rate figures are CPU time of this process, which runs
// the whole fabric on one thread. Every timed phase runs until the wall budget
// is spent AND a fixed, seed-determined statistics window (a virtual-time span,
// a flow count or an episode count) is complete, so virtual latency samples
// never depend on how fast the host happened to be. The delivery rate and the
// per-layer counts cover that window, for the same reason.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fbench/common.h"
#include "src/chaos/chaos.h"
#include "src/topo/generators.h"

namespace fabricbench {
namespace {

using namespace dumbnet;

constexpr uint32_t kControllerHost = 0;

uint32_t RandomOtherHost(Rng& rng, uint32_t hosts, uint32_t self) {
  auto dst = static_cast<uint32_t>(rng.UniformInt(hosts - 1));
  return dst >= self ? dst + 1 : dst;
}

// A seeded permutation of [0, hosts) with no fixed point: flow h goes to
// dst[h], so every host sends one flow and receives one.
std::vector<uint32_t> RandomDerangement(Rng& rng, uint32_t hosts) {
  std::vector<uint32_t> dst(hosts);
  for (uint32_t h = 0; h < hosts; ++h) {
    dst[h] = h;
  }
  rng.Shuffle(dst);
  // Swapping a fixed point with its neighbour never creates a new one.
  for (uint32_t h = 0; h < hosts; ++h) {
    if (dst[h] == h) {
      std::swap(dst[h], dst[(h + 1) % hosts]);
    }
  }
  return dst;
}

// Gives every link a seeded cable length: propagation delay uniform in
// [250, 750] ns around the generators' 500 ns. Without it every latency in the
// fabric is a sum of a few fixed delays, and a median lands on the same value
// for every seed.
void RandomizeCableLengths(Rng& rng, Topology& topo) {
  for (LinkIndex li = 0; li < static_cast<LinkIndex>(topo.link_count()); ++li) {
    topo.SetLinkPropagation(li, 250 + static_cast<int64_t>(rng.UniformInt(501)));
  }
}

void PrintShards(SimulatedFabric& fabric) {
  std::printf("fabric: %zu switches, %zu hosts, shards=%u shard_threads=%u\n",
              fabric.switch_count(), fabric.host_count(), fabric.shard_count(),
              fabric.shard_set().thread_count());
}

// Probing discovery must have found every switch and host.
void CheckDiscovery(SimulatedFabric& fabric, Report& report) {
  TopoDb& db = fabric.controller().db();
  const Topology& truth = fabric.topo();
  for (uint32_t s = 0; s < truth.switch_count(); ++s) {
    if (!db.KnowsSwitch(truth.switch_at(s).uid)) {
      report.Fail("probing discovery missed switch " + std::to_string(s));
      return;
    }
  }
  if (db.switch_count() != truth.switch_count() || db.host_count() != truth.host_count()) {
    report.Fail("probing discovery found " + std::to_string(db.switch_count()) +
                " switches and " + std::to_string(db.host_count()) + " hosts, expected " +
                std::to_string(truth.switch_count()) + " and " +
                std::to_string(truth.host_count()));
  }
}

// A k-ary fat-tree whose cable lengths are drawn from the seed.
Topology SeededFatTree(uint32_t k, uint64_t seed) {
  FatTreeConfig config;
  config.k = k;
  Topology topo = std::move(MakeFatTree(config).value().topo);
  Rng rng(SplitMix64(seed ^ 0xCAB1E).Next());
  RandomizeCableLengths(rng, topo);
  return topo;
}

// A set-up fabric with its traffic generator.
struct SimSetup {
  std::unique_ptr<SimFabric> sim;
  std::unique_ptr<Traffic> traffic;
  double bring_up_s = 0.0;
  TimeNs start = 0;           // dataplane_steady: when the open loop starts
  TimeNs longest_period = 0;  // dataplane_steady: its longest flow period
};

// Builds a seeded k-ary fat-tree into `s` and brings it up by probing
// discovery, which must find every switch and host. Returns whether it did.
bool SetUpProbed(SimSetup& s, uint32_t k, uint64_t seed, Tracer* tracer, Report& report) {
  s.sim = std::make_unique<SimFabric>(SeededFatTree(k, seed), tracer, kControllerHost);
  SimulatedFabric& fabric = s.sim->fabric();
  DiscoveryConfig discovery;
  discovery.max_ports = static_cast<uint8_t>(k);
  const int64_t t0 = NowNs();
  bool ready = false;
  {
    Span span(tracer, Layer::kBringUp);
    ready = fabric.BringUp(kControllerHost, ControllerConfig(), discovery);
  }
  s.bring_up_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (!ready) {
    report.Fail("probing discovery never completed");
    return false;
  }
  CheckDiscovery(fabric, report);
  return report.correct();
}

// Runs `set_up` as often as SetUpAgain asks, timing each into `times` (the
// previous fabric is torn down outside the timer), and returns the last one.
SimSetup SetUpRepeatedly(const Options& opts, Report& report, SetupTimes& times,
                         const std::function<SimSetup()>& set_up) {
  SimSetup s;
  while (report.correct() && SetUpAgain(opts, times)) {
    s = SimSetup();
    const int64_t t0 = NowNs();
    const int64_t cpu0 = CpuNs();
    s = set_up();
    times.Add(static_cast<double>(NowNs() - t0) / 1e9,
              static_cast<double>(CpuNs() - cpu0) / 1e9);
  }
  return s;
}

// The end-to-end metrics every simulated workload reports the same way.
// `windowed` is the traffic of the statistics window, `counted` the traffic
// delivered_ratio is taken over.
void ReportEndToEnd(Report& report, const SetupTimes& setup_times, const TimedLoop& loop,
                    const TrafficCounts& windowed, const TrafficCounts& counted) {
  setup_times.Print();
  // The window is a fixed, seed-determined amount of work, so the rate does
  // not depend on how far into the workload the wall budget lets a run get.
  const double pps = static_cast<double>(windowed.delivered()) / loop.window_cpu_s;
  std::printf("delivered: %" PRIu64 " data packets in the statistics window in %.3f CPU s: "
              "%.1f pps\n",
              windowed.delivered(), loop.window_cpu_s, pps);
  report.Set("setup_s", Median(setup_times.cpu_s));
  report.Set("peak_rss_mb", loop.window_rss_mb);
  report.Set("delivered_pps", pps);
  report.Set("delivered_ratio", Ratio{static_cast<double>(counted.delivered()),
                                      static_cast<double>(counted.sent())}
                                    .value());
}

// ---------------------------------------------------------------------------
// dataplane_steady

// k=16: 1,024 hosts and 320 switches, a working set that no longer fits the
// caches the way k=8 does (per-event cost is ~3x higher than at k=8).
constexpr uint32_t kDataplaneK = 16;
constexpr uint32_t kFlowsPerHost = 2;
// Open-loop load: the busiest link direction (over the routes the flows are
// bound to after warm-up) is offered half its capacity. Hosts pick among few
// paths, so a few links carry many flows while most carry few; a fixed rate
// would overflow some seeds' hot links and leave others idle.
constexpr double kBusiestLinkLoad = 0.5;
constexpr double kLinkBytesPerNs = 10.0 / 8.0;  // the generators' 10 Gb/s links
// RTT samples come from the small requests due in this many longest periods
// after the open loop starts (~8,000 samples).
constexpr int kRttWindowPeriods = 6;
constexpr TimeNs kDataplaneChunk = Us(2);
// Flows warmed per batch: 256 requests and their 256 reverse-path requests take
// ~15 ms of controller time at query_cost = 30 us, under the 50 ms timeout.
constexpr size_t kWarmBatch = 256;

SimSetup SetUpDataplane(const Options& opts, Tracer* tracer, Report& report) {
  SimSetup s;
  if (!SetUpProbed(s, kDataplaneK, opts.seed, tracer, report)) {
    return s;
  }
  SimulatedFabric& fabric = s.sim->fabric();
  s.traffic = std::make_unique<Traffic>(&fabric, tracer, /*echo=*/true);
  Rng rng(SplitMix64(opts.seed ^ 0xDA7A).Next());
  const uint32_t hosts = static_cast<uint32_t>(fabric.host_count());
  // Each round of flows is a seeded derangement, so every host sends and
  // receives kFlowsPerHost flows.
  for (uint32_t i = 0; i < kFlowsPerHost; ++i) {
    const std::vector<uint32_t> dst = RandomDerangement(rng, hosts);
    for (uint32_t h = 0; h < hosts; ++h) {
      s.traffic->AddFlow(h, dst[h]);
    }
  }
  // Warm every route in both directions: one small request per flow and its
  // echo. Batches keep the controller's queue shorter than the hosts' request
  // timeout, so warm-up does not set off a storm of retried path requests.
  for (size_t f = 0; f < s.traffic->flow_count(); ++f) {
    s.traffic->SendRequest(f, Traffic::kSmallBytes);
    if ((f + 1) % kWarmBatch == 0 || f + 1 == s.traffic->flow_count()) {
      s.sim->Run();
    }
  }
  s.start = fabric.Now() + Us(10);
  s.longest_period = s.traffic->ArmAll(rng, s.start, kBusiestLinkLoad, kLinkBytesPerNs);
  return s;
}

}  // namespace

void RunDataplaneSteady(const Options& opts, Report& report) {
  std::unique_ptr<Tracer> tracer = MakeTracer(opts);
  SetupTimes setup_times;
  SimSetup s = SetUpRepeatedly(opts, report, setup_times,
                               [&] { return SetUpDataplane(opts, tracer.get(), report); });
  if (!report.correct()) {
    return;
  }
  SimFabric& sim = *s.sim;
  Traffic& traffic = *s.traffic;
  SimulatedFabric& fabric = sim.fabric();
  PrintShards(fabric);

  const TimeNs start = s.start;
  const TimeNs window_end = start + s.longest_period * kRttWindowPeriods;
  std::vector<double> rtt_us;
  // RTTs of the small requests: the latency-sensitive half of the traffic,
  // queued behind the large half. (With both halves the median would sit on
  // the gap between two clusters and jump between them from seed to seed.)
  traffic.on_echo = [&](const Flow& f, uint64_t seq, TimeNs now) {
    const TimeNs due = f.DueTime(seq);
    if (seq >= f.seq0 && Traffic::IsSmall(seq) && due < window_end) {
      rtt_us.push_back(static_cast<double>(now - due) / 1e3);
    }
  };
  const Counters before = sim.Snapshot();
  const SpanTotals spans_before = tracer != nullptr ? tracer->totals() : SpanTotals{};
  const TrafficCounts traffic_before = traffic.counts();
  Counters after;
  TrafficCounts windowed;
  const TimedLoop loop = RunTimed(
      opts.seconds, tracer.get(),
      [&](bool) { return sim.RunUntil(fabric.Now() + kDataplaneChunk); },
      [&] { return fabric.Now() >= window_end + s.longest_period * 2; },
      [&] {
        after = sim.Snapshot();
        windowed = traffic.counts() - traffic_before;
      },
      nullptr);
  const TrafficCounts timed = traffic.counts() - traffic_before;
  traffic.StopAt(fabric.Now());
  sim.Run();  // drain: every request sent must come back as an echo

  const TrafficCounts drained = traffic.counts() - traffic_before;
  report.attempted = drained.requests_sent;
  report.failed = drained.requests_sent - drained.echoes_delivered;
  traffic.CheckLedger(report);
  if (report.failed != 0) {
    report.Fail(std::to_string(report.failed) + " requests never got their echo");
  }
  VerifyProvenance(sim, traffic, report);
  std::printf("dataplane: %zu flows, periods up to %.2f us, %.3f virtual ms in %.2f wall s, "
              "%" PRIu64 " data packets delivered\n",
              traffic.flow_count(), static_cast<double>(s.longest_period) / 1e3,
              static_cast<double>(fabric.Now() - start) / 1e6, loop.wall_s, timed.delivered());
  LayerExtras extras;
  extras.bring_up_s = s.bring_up_s;
  extras.data_delivered = windowed.delivered();

  ReportEndToEnd(report, setup_times, loop, windowed, drained);
  ReportLatency(report, "echo RTT (virtual)", rtt_us);
  if (tracer != nullptr) {
    ReportSimLayers(report, before, after, tracer->totals() - spans_before, loop,
                    extras);
    WriteTrace(opts, *tracer);
  }
}

// ---------------------------------------------------------------------------
// cold_flow_setup

namespace {

constexpr uint32_t kColdK = 16;
constexpr uint32_t kBurstPackets = 4;
constexpr int64_t kBurstBytes = 1500;
// Flow arrivals are Poisson at half the controller's service rate
// (1 / query_cost), so a retry means two requests really contended.
constexpr double kColdLoad = 0.5;
// The statistics window: first-packet latencies, counts and the delivery rate
// come from the first this-many flows (160 samples beyond the p99 rank; 13-20 s
// of CPU time on the 4-core VM the benchmark was written on).
constexpr uint64_t kColdStatFlows = 16000;
constexpr TimeNs kColdChunk = Us(200);

SimSetup SetUpCold(const Options& opts, Tracer* tracer, Report& report) {
  SimSetup s;
  s.sim =
      std::make_unique<SimFabric>(SeededFatTree(kColdK, opts.seed), tracer, kControllerHost);
  SimulatedFabric& fabric = s.sim->fabric();
  const int64_t t0 = NowNs();
  {
    Span span(tracer, Layer::kBringUp);
    fabric.BringUpAdopted(kControllerHost);
  }
  s.bring_up_s = static_cast<double>(NowNs() - t0) / 1e9;
  for (uint32_t h = 0; h < fabric.host_count(); ++h) {
    if (!fabric.agent(h).bootstrapped()) {
      report.Fail("host " + std::to_string(h) + " never bootstrapped");
      return s;
    }
  }
  s.traffic = std::make_unique<Traffic>(&fabric, tracer, /*echo=*/false);
  return s;
}

// Open loop of new flows: Poisson arrivals, each from a random host to a
// destination that host has no route for, each sending a short burst.
class FlowArrivals {
 public:
  FlowArrivals(SimulatedFabric* fabric, Traffic* traffic, uint64_t seed, TimeNs mean_gap)
      : fabric_(fabric), traffic_(traffic), rng_(seed), mean_gap_(mean_gap) {}

  FlowArrivals(const FlowArrivals&) = delete;
  FlowArrivals& operator=(const FlowArrivals&) = delete;

  void Start(TimeNs at) { ScheduleNext(at); }
  void StopAt(TimeNs t) { stop_at_ = t; }
  const std::vector<TimeNs>& arrival() const { return arrival_; }

 private:
  void ScheduleNext(TimeNs at) {
    const uint32_t hosts = static_cast<uint32_t>(fabric_->host_count());
    const uint32_t src = static_cast<uint32_t>(rng_.UniformInt(hosts));
    fabric_->net().SimFor(NodeId::Host(src)).ScheduleAt(at, [this, src, at] {
      Arrive(src, at);
    });
  }

  void Arrive(uint32_t src, TimeNs at) {
    if (at >= stop_at_) {
      return;
    }
    const uint32_t hosts = static_cast<uint32_t>(fabric_->host_count());
    HostAgent& agent = fabric_->agent(src);
    uint32_t dst = 0;
    do {
      dst = RandomOtherHost(rng_, hosts, src);
    } while (agent.path_table().Contains(fabric_->agent(dst).mac()) ||
             !used_.insert((static_cast<uint64_t>(src) << 32) | dst).second);
    const size_t f = traffic_->AddFlow(src, dst);
    arrival_.push_back(at);
    for (uint32_t i = 0; i < kBurstPackets; ++i) {
      traffic_->SendRequest(f, kBurstBytes);
    }
    const TimeNs gap = std::max<TimeNs>(
        1, static_cast<TimeNs>(rng_.Exponential(static_cast<double>(mean_gap_))));
    ScheduleNext(at + gap);
  }

  SimulatedFabric* fabric_;
  Traffic* traffic_;
  Rng rng_;
  TimeNs mean_gap_;
  TimeNs stop_at_ = INT64_MAX;
  std::set<uint64_t> used_;       // (src, dst) pairs already given a flow
  std::vector<TimeNs> arrival_;   // per flow index
};

}  // namespace

void RunColdFlowSetup(const Options& opts, Report& report) {
  std::unique_ptr<Tracer> tracer = MakeTracer(opts);
  SetupTimes setup_times;
  SimSetup s = SetUpRepeatedly(opts, report, setup_times,
                               [&] { return SetUpCold(opts, tracer.get(), report); });
  if (!report.correct()) {
    return;
  }
  SimFabric& sim = *s.sim;
  Traffic& traffic = *s.traffic;
  SimulatedFabric& fabric = sim.fabric();
  PrintShards(fabric);

  const TimeNs query_cost = ControllerConfig().query_cost;
  const TimeNs mean_gap = static_cast<TimeNs>(static_cast<double>(query_cost) / kColdLoad);
  FlowArrivals arrivals(&fabric, &traffic, SplitMix64(opts.seed ^ 0xC01D).Next(),
                        mean_gap);
  std::vector<double> first_pkt_us;
  uint64_t flows_set_up = 0;
  traffic.on_request = [&](const Flow&, size_t index, uint64_t seq, TimeNs now) {
    if (seq != 0) {
      return;
    }
    ++flows_set_up;
    if (index < kColdStatFlows) {
      first_pkt_us.push_back(static_cast<double>(now - arrivals.arrival()[index]) / 1e3);
    }
  };
  const Counters before = sim.Snapshot();
  const SpanTotals spans_before = tracer != nullptr ? tracer->totals() : SpanTotals{};
  const TrafficCounts traffic_before = traffic.counts();
  const TimeNs start = fabric.Now() + Us(10);
  arrivals.Start(start);
  Counters after;
  TrafficCounts windowed;
  const TimedLoop loop = RunTimed(
      opts.seconds, tracer.get(),
      [&](bool) { return sim.RunUntil(fabric.Now() + kColdChunk); },
      [&] { return flows_set_up >= kColdStatFlows; },
      [&] {
        after = sim.Snapshot();
        windowed = traffic.counts() - traffic_before;
      },
      nullptr);
  const uint64_t timed_setups = flows_set_up;
  arrivals.StopAt(fabric.Now());
  sim.Run();

  const TrafficCounts drained = traffic.counts() - traffic_before;
  report.attempted = traffic.flow_count();
  report.failed = traffic.IncompleteFlows();
  traffic.CheckLedger(report);
  if (report.failed != 0) {
    report.Fail(std::to_string(report.failed) + " flows did not deliver their whole burst");
  }
  VerifyProvenance(sim, traffic, report);
  std::printf("cold: %zu flows started, %" PRIu64
              " set up in %.2f wall s (%.0f flow setups/s)\n",
              traffic.flow_count(), timed_setups, loop.wall_s,
              static_cast<double>(timed_setups) / loop.wall_s);
  LayerExtras extras;
  extras.bring_up_s = s.bring_up_s;
  extras.data_delivered = windowed.delivered();

  ReportEndToEnd(report, setup_times, loop, windowed, drained);
  ReportLatency(report, "first-packet latency (virtual)", first_pkt_us);
  if (tracer != nullptr) {
    ReportSimLayers(report, before, after, tracer->totals() - spans_before, loop,
                    extras);
    WriteTrace(opts, *tracer);
  }
}

// ---------------------------------------------------------------------------
// link_churn

namespace {

// k=8 (128 hosts, 80 switches), not k=16: every port alarm is relayed
// notify_hops=5 hops with fan-out k-1, so one link failure at k=8 already
// costs ~10^5 packet deliveries, and at k=16 one failure did not finish.
constexpr uint32_t kChurnK = 8;
// Background: one flow per host (a seeded derangement), open loop, a request
// every [10, 20) us alternating 64 B and 1,500 B. The rate is fixed, not set
// from the busiest link as in dataplane_steady, so every episode carries the
// same traffic; ~4% of a host link, and no k=8 link carries enough flows to
// fill.
constexpr TimeNs kChurnBasePeriod = Us(10);
constexpr TimeNs kChurnHorizon = Ms(10);
// The statistics window: failover latencies, counts and the delivery rate come
// from the first this-many episodes (~4,000 failover samples; 4-6 s of CPU
// time each).
constexpr int kChurnStatEpisodes = 4;

// Two flapping links, one gray link and one switch outage. Every episode
// touches the same number of links, so every episode raises the same number of
// port alarms (four per touched link: a down and a trailing up at each end)
// and costs about the same: the library's generator is re-drawn until its
// outage victim is an edge switch, whose 4 uplinks make 6 touched links.
constexpr uint32_t kChurnTouchedLinks = 6;

chaos::ChaosSchedule EpisodeSchedule(const Topology& topo, uint64_t seed, int episode) {
  chaos::ChaosConfig config;
  config.start = Ms(1);
  config.horizon = kChurnHorizon;
  config.flap.links = 2;
  config.flap.mean_up_dwell = Ms(2);
  config.flap.mean_down_dwell = Ms(1);
  config.gray.links = 1;
  config.outage.enabled = true;
  config.outage.duration = Ms(3);
  for (uint64_t draw = 0;; ++draw) {
    const uint64_t sub_seed =
        SplitMix64((static_cast<uint64_t>(episode) << 20) + draw).Next();
    config.seed = SplitMix64(seed ^ sub_seed).Next();
    chaos::ChaosSchedule schedule = chaos::GenerateSchedule(topo, config);
    if (schedule.TouchedLinks().size() == kChurnTouchedLinks) {
      return schedule;
    }
  }
}

SimSetup SetUpChurn(const Options& opts, Tracer* tracer, Report& report) {
  SimSetup s;
  if (!SetUpProbed(s, kChurnK, opts.seed, tracer, report)) {
    return s;
  }
  SimulatedFabric& fabric = s.sim->fabric();
  s.traffic = std::make_unique<Traffic>(&fabric, tracer, /*echo=*/false);
  Rng rng(SplitMix64(opts.seed ^ 0xB6).Next());
  const std::vector<uint32_t> dst =
      RandomDerangement(rng, static_cast<uint32_t>(fabric.host_count()));
  for (uint32_t h = 0; h < dst.size(); ++h) {
    s.traffic->AddFlow(h, dst[h]);
  }
  for (size_t f = 0; f < s.traffic->flow_count(); ++f) {
    s.traffic->SendRequest(f, Traffic::kSmallBytes);
  }
  s.sim->Run();
  if (s.traffic->IncompleteFlows() != 0) {
    report.Fail("background flows did not warm up");
  }
  return s;
}

}  // namespace

void RunLinkChurn(const Options& opts, Report& report) {
  std::unique_ptr<Tracer> tracer = MakeTracer(opts);
  SetupTimes setup_times;
  SimSetup s = SetUpRepeatedly(opts, report, setup_times,
                               [&] { return SetUpChurn(opts, tracer.get(), report); });
  if (!report.correct()) {
    return;
  }
  SimFabric& sim = *s.sim;
  Traffic& traffic = *s.traffic;
  SimulatedFabric& fabric = sim.fabric();
  PrintShards(fabric);

  // Failover latency, as in bench/churn_failover.cc: virtual time from a
  // link-down event's origin to each host learning of it.
  std::vector<double> failover_us;
  bool record_failover = true;
  for (uint32_t h = 0; h < fabric.host_count(); ++h) {
    HostAgent* agent = &fabric.agent(h);
    agent->SetLinkEventHook([agent, &failover_us, &record_failover](
                                const LinkEventPayload& ev, bool /*from_fabric*/) {
      if (!ev.up && record_failover) {
        failover_us.push_back(static_cast<double>(agent->sim().Now() - ev.origin_time) /
                              1e3);
      }
    });
  }

  Rng rng(SplitMix64(opts.seed ^ 0x9E410D).Next());
  const Counters before = sim.Snapshot();
  const SpanTotals spans_before = tracer != nullptr ? tracer->totals() : SpanTotals{};
  const TrafficCounts traffic_before = traffic.counts();
  uint64_t actions = 0;
  uint64_t findings = 0;
  uint64_t verify_sent = 0;
  uint64_t verify_lost = 0;
  TrafficCounts churn_traffic;
  int episode = 0;
  Counters after;
  TrafficCounts windowed;
  uint64_t window_actions = 0;
  const TimedLoop loop = RunTimed(
      opts.seconds, tracer.get(),
      [&](bool) {
        record_failover = episode < kChurnStatEpisodes;
        const chaos::ChaosSchedule schedule =
            EpisodeSchedule(fabric.topo(), opts.seed, episode);
        actions += schedule.actions.size();
        const TimeNs t0 = fabric.Now();
        // Background open loop for the whole episode; it stops at the final
        // restore so RunSchedule's closing Run() can reach quiescence.
        const TrafficCounts c0 = traffic.counts();
        traffic.StopAt(t0 + kChurnHorizon);
        for (size_t f = 0; f < traffic.flow_count(); ++f) {
          const TimeNs period =
              kChurnBasePeriod + static_cast<TimeNs>(rng.UniformInt(kChurnBasePeriod));
          const auto phase = static_cast<TimeNs>(rng.UniformInt(static_cast<uint64_t>(period)));
          traffic.Arm(f, t0 + phase, period);
        }
        const uint64_t events0 = fabric.executed_events();
        {
          Span span(tracer.get(), Layer::kChaosRun);
          chaos::RunSchedule(fabric, schedule);
        }
        churn_traffic += traffic.counts() - c0;
        std::vector<LinkIndex> links = schedule.TouchedLinks();
        for (LinkIndex li : schedule.GrayLinks()) {
          links.push_back(li);
        }
        const std::vector<std::string> stale = chaos::CheckConvergence(fabric, links);
        findings += stale.size();
        if (!stale.empty()) {
          report.Fail("episode " + std::to_string(episode) + ": " + stale.front());
        }
        // After the final restore every flow must deliver again.
        const TrafficCounts v0 = traffic.counts();
        for (size_t f = 0; f < traffic.flow_count(); ++f) {
          traffic.SendRequest(f, Traffic::kSmallBytes);
        }
        sim.Run();
        const TrafficCounts v = traffic.counts() - v0;
        verify_sent += v.requests_sent;
        verify_lost += v.requests_sent - v.requests_delivered;
        ++episode;
        return fabric.executed_events() - events0;
      },
      [&] { return episode >= kChurnStatEpisodes; },
      [&] {
        after = sim.Snapshot();
        windowed = traffic.counts() - traffic_before;
        window_actions = actions;
      },
      nullptr);

  report.attempted = verify_sent;
  report.failed = verify_lost;
  traffic.CheckLedger(report);
  if (verify_lost != 0) {
    report.Fail(std::to_string(verify_lost) + " post-churn packets were not delivered");
  }
  VerifyProvenance(sim, traffic, report);
  std::printf("churn: %d episodes, %" PRIu64 " chaos actions, %" PRIu64
              " background packets delivered of %" PRIu64 " sent during churn, %.2f wall s\n",
              episode, actions, churn_traffic.delivered(), churn_traffic.sent(), loop.wall_s);
  LayerExtras extras;
  extras.bring_up_s = s.bring_up_s;
  extras.data_delivered = windowed.delivered();
  extras.chaos_actions = window_actions;
  // Every episode's findings, not just the window's: any one fails the run.
  extras.convergence_findings = findings;

  ReportEndToEnd(report, setup_times, loop, windowed, churn_traffic);
  ReportLatency(report, "failover latency (virtual)", failover_us);
  if (tracer != nullptr) {
    ReportSimLayers(report, before, after, tracer->totals() - spans_before, loop,
                    extras);
    WriteTrace(opts, *tracer);
  }
}

}  // namespace fabricbench
