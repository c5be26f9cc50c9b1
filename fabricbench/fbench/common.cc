#include "fbench/common.h"

#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <utility>

#include "src/analysis/contracts.h"
#include "src/telemetry/telemetry.h"

namespace fabricbench {

using namespace dumbnet;

Counters operator-(const Counters& after, const Counters& before) {
  Counters out = after;
  for (const auto& [name, value] : before) {
    out[name] -= value;
  }
  return out;
}

// ---------------------------------------------------------------------------
// SimFabric

namespace {

// Forwards every call to the node it stands in front of, inside a span.
// Packets for the controller's path-serving input (PathRequestPayload on the
// controller's host) are charged to ctrl.rx instead of host.rx.
class TracedNode : public NetNode {
 public:
  TracedNode(NetNode* inner, Tracer* tracer, Layer layer, bool controller_host,
             uint64_t* port_event_rx)
      : inner_(inner),
        tracer_(tracer),
        layer_(layer),
        controller_host_(controller_host),
        port_event_rx_(port_event_rx) {}

  TracedNode(const TracedNode&) = delete;
  TracedNode& operator=(const TracedNode&) = delete;

  void HandlePacket(const Packet& pkt, PortNum in_port) override {
    Count(pkt);
    Span span(tracer_, LayerOf(pkt), RequestOf(pkt));
    inner_->HandlePacket(pkt, in_port);
  }

  void HandlePacket(Packet&& pkt, PortNum in_port) override {
    Count(pkt);
    Span span(tracer_, LayerOf(pkt), RequestOf(pkt));
    inner_->HandlePacket(std::move(pkt), in_port);
  }

  void HandlePortChange(PortNum port, bool up) override {
    Span span(tracer_, layer_);
    inner_->HandlePortChange(port, up);
  }

 private:
  Layer LayerOf(const Packet& pkt) const {
    return controller_host_ && pkt.As<PathRequestPayload>() != nullptr ? Layer::kCtrlRx
                                                                       : layer_;
  }

  static uint64_t RequestOf(const Packet& pkt) {
    const auto* data = pkt.As<DataPayload>();
    return data != nullptr ? data->flow_id : 0;
  }

  void Count(const Packet& pkt) {
    if (pkt.As<PortEventPayload>() != nullptr) {
      ++*port_event_rx_;
    }
  }

  NetNode* inner_;
  Tracer* tracer_;
  Layer layer_;
  bool controller_host_;
  uint64_t* port_event_rx_;
};

}  // namespace

SimFabric::SimFabric(Topology topo, Tracer* tracer, uint32_t controller_host)
    : fabric_(std::move(topo)), tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  for (uint32_t s = 0; s < fabric_.switch_count(); ++s) {
    wrappers_.push_back(std::make_unique<TracedNode>(&fabric_.dumb_switch(s), tracer_,
                                                     Layer::kSwitchRx, false, &port_event_rx_));
    fabric_.net().RegisterSwitchNode(s, wrappers_.back().get());
  }
  for (uint32_t h = 0; h < fabric_.host_count(); ++h) {
    wrappers_.push_back(std::make_unique<TracedNode>(&fabric_.agent(h), tracer_, Layer::kHostRx,
                                                     h == controller_host, &port_event_rx_));
    fabric_.net().RegisterHostNode(h, wrappers_.back().get());
  }
}

uint64_t SimFabric::Run() {
  Span span(tracer_, Layer::kSimRun);
  return fabric_.Run();
}

uint64_t SimFabric::RunUntil(TimeNs deadline) {
  Span span(tracer_, Layer::kSimRun);
  return fabric_.RunUntil(deadline);
}

Counters SimFabric::Snapshot() {
  Counters c;
  auto add = [&c](const char* name, uint64_t v) { c[name] += static_cast<double>(v); };
  add("sim.events", fabric_.executed_events());
  for (uint32_t i = 0; i < fabric_.shard_count(); ++i) {
    add("sim.pool_slots", fabric_.shard_set().shard(i).mem_stats().pool_slots);
  }
  add("sim.windows", fabric_.shard_set().stats().windows);
  add("sim.cross_posts", fabric_.shard_set().stats().cross_posts);
  const NetworkStats net = fabric_.net().stats();
  add("net.delivered", net.delivered);
  add("net.dropped_queue_full", net.dropped_queue_full);
  add("net.dropped_link_down", net.dropped_link_down);
  add("net.dropped_gray", net.dropped_gray);
  for (uint32_t s = 0; s < fabric_.switch_count(); ++s) {
    const DumbSwitchStats& st = fabric_.dumb_switch(s).stats();
    add("switch.forwarded", st.forwarded);
    add("switch.notifications_sent", st.notifications_sent);
    add("switch.notifications_relayed", st.notifications_relayed);
    add("switch.alarms_suppressed", st.alarms_suppressed);
  }
  add("switch.port_event_rx", port_event_rx_);
  for (uint32_t h = 0; h < fabric_.host_count(); ++h) {
    HostAgent& agent = fabric_.agent(h);
    const HostAgentStats& st = agent.stats();
    add("host.data_blocked", st.data_blocked);
    add("host.path_requests", st.path_requests);
    add("host.verify_failures", st.verify_failures);
    add("host.link_repairs", st.link_repairs);
    add("host.floods_sent", st.floods_sent);
    add("host.patches_applied", st.patches_applied);
    add("host.path_divergence", st.path_divergence);
    const PathTableStats& pt = agent.path_table().stats();
    add("host.path_table_hits", pt.hits);
    add("host.path_table_misses", pt.misses);
    add("host.path_table_rebinds", pt.rebinds);
    add("host.backup_promotions", pt.backup_promotions);
    add("host.path_table_entries", agent.path_table().size());
  }
  if (fabric_.has_controller()) {
    const ControllerStats& st = fabric_.controller().stats();
    add("ctrl.queries_served", st.queries_served);
    add("ctrl.queries_failed", st.queries_failed);
    add("ctrl.patches_sent", st.patches_sent);
    add("ctrl.wire_cache_hits", st.wire_cache_hits);
    add("ctrl.wire_cache_misses", st.wire_cache_misses);
    add("ctrl.sssp_hits", fabric_.controller().sssp_cache_stats().hits);
    add("ctrl.sssp_misses", fabric_.controller().sssp_cache_stats().misses);
  }
  return c;
}

// ---------------------------------------------------------------------------
// Traffic

TrafficCounts TrafficCounts::operator-(const TrafficCounts& o) const {
  return TrafficCounts{requests_sent - o.requests_sent, requests_delivered - o.requests_delivered,
                       echoes_sent - o.echoes_sent, echoes_delivered - o.echoes_delivered};
}

TrafficCounts& TrafficCounts::operator+=(const TrafficCounts& o) {
  requests_sent += o.requests_sent;
  requests_delivered += o.requests_delivered;
  echoes_sent += o.echoes_sent;
  echoes_delivered += o.echoes_delivered;
  return *this;
}

Traffic::Traffic(SimulatedFabric* fabric, Tracer* tracer, bool echo)
    : fabric_(fabric), tracer_(tracer), echo_(echo) {
  for (uint32_t h = 0; h < fabric_->host_count(); ++h) {
    fabric_->agent(h).SetDataHandler(
        [this, h](const Packet& pkt, const DataPayload& data) { OnData(h, pkt, data); });
  }
}

size_t Traffic::AddFlow(uint32_t src, uint32_t dst) {
  Flow f;
  f.src = src;
  f.dst = dst;
  f.src_mac = fabric_->agent(src).mac();
  f.dst_mac = fabric_->agent(dst).mac();
  flows_.push_back(std::move(f));
  return flows_.size() - 1;
}

void Traffic::SendRequest(size_t f, int64_t bytes) {
  Flow& flow = flows_[f];
  DataPayload data;
  data.seq = flow.got.size();
  data.bytes = bytes;
  flow.got.push_back(0);
  ++counts_.requests_sent;
  Status status;
  {
    Span span(tracer_, Layer::kHostSend, f + 1);
    status = fabric_->agent(flow.src).Send(flow.dst_mac, f + 1, data);
  }
  if (!status.ok()) {
    Violation("send failed: " + status.ToString());
  }
}

void Traffic::Arm(size_t f, TimeNs first_due, TimeNs period) {
  Flow& flow = flows_[f];
  flow.period = period;
  flow.first_due = first_due;
  flow.next_due = first_due;
  flow.seq0 = flow.got.size();
  fabric_->net().SimFor(NodeId::Host(flow.src)).ScheduleAt(first_due, [this, f] { Fire(f); });
}

void Traffic::Fire(size_t f) {
  if (flows_[f].next_due >= stop_at_) {
    return;
  }
  SendRequest(f, IsSmall(flows_[f].got.size()) ? kSmallBytes : kLargeBytes);
  Flow& flow = flows_[f];
  flow.next_due += flow.period;
  fabric_->net().SimFor(NodeId::Host(flow.src)).ScheduleAt(flow.next_due, [this, f] { Fire(f); });
}

double Traffic::BusiestLinkBytesPerNs(const std::vector<double>& rel_period) const {
  // Ethernet header and tag stack on top of the payload: 14 B + at most ~8 B.
  constexpr double kFraming = 24.0;
  constexpr double kMeanRequestBytes = (kSmallBytes + kLargeBytes) / 2.0 + kFraming;
  std::map<std::pair<uint64_t, uint64_t>, double> load;
  auto charge = [&](uint32_t from, uint64_t to_mac, uint64_t flow_id, double bytes_per_ns) {
    HostAgent& agent = fabric_->agent(from);
    const PathTableEntry* entry = agent.path_table().Find(to_mac);
    if (entry == nullptr) {
      return;
    }
    auto bound = entry->flow_binding.find(flow_id);
    if (bound == entry->flow_binding.end()) {
      return;
    }
    const CachedRoute& route =
        bound->second == SIZE_MAX ? entry->backup : entry->paths[bound->second];
    std::vector<uint64_t> hops;
    hops.push_back(agent.mac());
    hops.insert(hops.end(), route.uid_path.begin(), route.uid_path.end());
    hops.push_back(to_mac);
    for (size_t i = 0; i + 1 < hops.size(); ++i) {
      load[{hops[i], hops[i + 1]}] += bytes_per_ns;
    }
  };
  for (size_t f = 0; f < flows_.size(); ++f) {
    const Flow& flow = flows_[f];
    charge(flow.src, flow.dst_mac, f + 1, kMeanRequestBytes / rel_period[f]);
    if (echo_) {
      charge(flow.dst, flow.src_mac, f + 1, (kEchoBytes + kFraming) / rel_period[f]);
    }
  }
  double busiest = 0.0;
  for (const auto& [link, bytes_per_ns] : load) {
    busiest = std::max(busiest, bytes_per_ns);
  }
  return busiest;
}

TimeNs Traffic::ArmAll(Rng& rng, TimeNs start, double load, double link_bytes_per_ns) {
  std::vector<double> rel(flows_.size());
  for (double& r : rel) {
    r = 1.0 + rng.UniformDouble();
  }
  const double unit = BusiestLinkBytesPerNs(rel) / (load * link_bytes_per_ns);
  TimeNs longest = 0;
  for (size_t f = 0; f < flows_.size(); ++f) {
    const auto period = std::max<TimeNs>(1, static_cast<TimeNs>(rel[f] * unit));
    Arm(f, start + static_cast<TimeNs>(rng.UniformInt(static_cast<uint64_t>(period))), period);
    longest = std::max(longest, period);
  }
  return longest;
}

void Traffic::OnData(uint32_t host, const Packet& pkt, const DataPayload& data) {
  if (data.flow_id == 0 || data.flow_id > flows_.size()) {
    Violation("delivery with unknown flow id " + std::to_string(data.flow_id));
    return;
  }
  const size_t index = data.flow_id - 1;
  Flow& f = flows_[index];
  const bool echo = data.is_ack;
  if (host != (echo ? f.src : f.dst) ||
      pkt.eth.src_mac != (echo ? f.dst_mac : f.src_mac)) {
    Violation("flow " + std::to_string(data.flow_id) + " delivered to host " +
              std::to_string(host) + " from the wrong endpoint");
    return;
  }
  if (data.seq >= f.got.size()) {
    Violation("flow " + std::to_string(data.flow_id) + " seq " + std::to_string(data.seq) +
              " delivered but never sent");
    return;
  }
  uint8_t& got = f.got[data.seq];
  const uint8_t bit = echo ? 2 : 1;
  if (echo && (!echo_ || (got & 1) == 0)) {
    Violation("echo for flow " + std::to_string(data.flow_id) + " seq " +
              std::to_string(data.seq) + " that was never requested");
    return;
  }
  if ((got & bit) != 0) {
    Violation("flow " + std::to_string(data.flow_id) + " seq " + std::to_string(data.seq) +
              (echo ? " echo" : " request") + " delivered twice");
    return;
  }
  got = static_cast<uint8_t>(got | bit);
  const TimeNs now = fabric_->agent(host).sim().Now();
  if (echo) {
    ++counts_.echoes_delivered;
    if (on_echo) {
      on_echo(f, data.seq, now);
    }
    return;
  }
  ++counts_.requests_delivered;
  if (on_request) {
    on_request(f, index, data.seq, now);
  }
  if (echo_) {
    DataPayload reply;
    reply.seq = data.seq;
    reply.is_ack = true;
    reply.bytes = kEchoBytes;
    ++counts_.echoes_sent;
    Status status;
    {
      Span span(tracer_, Layer::kHostSend, data.flow_id);
      status = fabric_->agent(host).Send(f.src_mac, data.flow_id, reply);
    }
    if (!status.ok()) {
      Violation("echo send failed: " + status.ToString());
    }
  }
}

void Traffic::Violation(const std::string& what) {
  if (violations_++ == 0) {
    first_violation_ = what;
  }
}

uint64_t Traffic::IncompleteFlows() const {
  return static_cast<uint64_t>(std::count_if(flows_.begin(), flows_.end(), [](const Flow& f) {
    return std::any_of(f.got.begin(), f.got.end(), [](uint8_t g) { return (g & 1) == 0; });
  }));
}

void Traffic::CheckLedger(Report& report) const {
  if (violations_ != 0) {
    report.Fail("delivery ledger: " + first_violation_ + " (" + std::to_string(violations_) +
                " violations)");
  }
}

// ---------------------------------------------------------------------------
// Timed loop and reporting

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double PingPongNs() {
  // Five bursts of 200 round trips; the median burst, so one preemption
  // during a burst does not move the reading.
  constexpr int kBursts = 5;
  constexpr int kRounds = 200;
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    return kReferencePingPongNs;
  }
  auto bounce = [](int fd, bool first, int rounds) {
    char c = 'x';
    for (int i = 0; i < rounds; ++i) {
      if ((first && write(fd, &c, 1) != 1) || read(fd, &c, 1) != 1 ||
          (!first && write(fd, &c, 1) != 1)) {
        return;
      }
    }
  };
  std::thread echo(bounce, sv[1], false, kBursts * kRounds);
  std::vector<double> bursts;
  for (int b = 0; b < kBursts; ++b) {
    const int64_t t0 = NowNs();
    bounce(sv[0], true, kRounds);
    bursts.push_back(static_cast<double>(NowNs() - t0) / kRounds);
  }
  echo.join();
  close(sv[0]);
  close(sv[1]);
  return Median(bursts);
}

void Slices::Start() {
  start_ns_ = NowNs();
  start_delivered_ = delivered_();
}

void Slices::Tick(bool last) {
  constexpr int64_t kSliceNs = 500'000'000;
  const int64_t now = NowNs();
  if (now - start_ns_ - probe_ns_ < kSliceNs && !last) {
    return;
  }
  const uint64_t delivered = delivered_();
  rates_.push_back(static_cast<double>(delivered - start_delivered_) /
                   (static_cast<double>(now - start_ns_ - probe_ns_) / 1e9));
  pingpong_.push_back((probe_sum_ + PingPongNs()) / (probes_ + 1));
  start_ns_ = NowNs();
  start_delivered_ = delivered;
  probe_ns_ = 0;
  probe_sum_ = 0.0;
  probes_ = 0;
}

double Slices::Probe() {
  const int64_t t0 = NowNs();
  const double reading = PingPongNs();
  probe_sum_ += reading;
  ++probes_;
  probe_ns_ += NowNs() - t0;
  return reading;
}

double Slices::MedianRate() const {
  std::vector<double> rates(rates_.size());
  for (size_t i = 0; i < rates.size(); ++i) {
    // A rate is per unit of time, so it scales the other way.
    rates[i] = rates_[i] / ToReferenceTime(1.0, pingpong_[i]);
  }
  return Median(rates);
}

void Slices::Print() const {
  std::printf("delivered: median over %zu slices %.1f pps (reference time), %.1f pps (wall); "
              "median ping-pong %.0f ns\n",
              rates_.size(), MedianRate(), Median(rates_), Median(pingpong_));
}

double TimedLoop::OverheadRatio() const {
  if (traced_units <= 0.0 || plain_units <= 0.0 || plain_ns <= 0.0) {
    return 0.0;
  }
  return (traced_ns / traced_units) / (plain_ns / plain_units) - 1.0;
}

TimedLoop RunTimed(double seconds, Tracer* tracer, const std::function<uint64_t(bool)>& step,
                   const std::function<bool()>& done, const std::function<void()>& at_window,
                   Slices* slices) {
  // Traced runs also enforce the hot-path contracts, so contracts.hot_allocs
  // is measured on every workload.
  if (tracer != nullptr) {
    contracts::SetEnabled(true);
  }
  TimedLoop loop;
  const int64_t start = NowNs();
  const int64_t cpu_start = CpuNs();
  const auto budget = static_cast<int64_t>(seconds * 1e9);
  if (slices != nullptr) {
    slices->Start();
  }
  for (;;) {
    const bool traced = tracer != nullptr && loop.steps % 2 == 1;
    if (tracer != nullptr) {
      tracer->SetEnabled(traced);
    }
    const int64_t t0 = NowNs();
    const auto units = static_cast<double>(step(traced));
    const int64_t t1 = NowNs();
    (traced ? loop.traced_ns : loop.plain_ns) += static_cast<double>(t1 - t0);
    (traced ? loop.traced_units : loop.plain_units) += units;
    ++loop.steps;
    if (loop.window_rss_mb == 0.0 && done()) {
      loop.window_cpu_s = static_cast<double>(CpuNs() - cpu_start) / 1e9;
      loop.window_rss_mb = PeakRssMb();
      at_window();
    }
    const bool finished = t1 - start >= budget && loop.window_rss_mb != 0.0;
    if (slices != nullptr) {
      slices->Tick(finished);
    }
    if (finished) {
      break;
    }
  }
  loop.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  if (tracer != nullptr) {
    tracer->SetEnabled(false);
    contracts::SetEnabled(false);
  }
  return loop;
}

std::unique_ptr<Tracer> MakeTracer(const Options& opts, uint32_t sample_one_in) {
  if (!opts.trace) {
    return nullptr;
  }
  auto tracer =
      std::make_unique<Tracer>(SplitMix64(opts.seed ^ 0x7ACE).Next(), sample_one_in);
  tracer->SetEnabled(true);
  return tracer;
}

void SetupTimes::Add(double wall, double cpu) {
  wall_s.push_back(wall);
  cpu_s.push_back(cpu);
}

void SetupTimes::Print() const {
  std::printf("setup: %zu set-ups, median %.4f s (wall), %.4f s (CPU time)\n", wall_s.size(),
              Median(wall_s), Median(cpu_s));
}

bool SetUpAgain(const Options& opts, const SetupTimes& times) {
  const size_t n = times.wall_s.size();
  if (opts.trace || n >= 31) {
    return n == 0;
  }
  double spent = 0.0;
  for (double t : times.wall_s) {
    spent += t;
  }
  return n < 3 || spent < 2.0;
}

void WriteTrace(const Options& opts, const Tracer& tracer) {
  const std::string path = std::string(kWorkDir) + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".trace.json";
  const bool ok = tracer.WriteChromeTrace(path);
  std::printf("trace: %zu spans (%" PRIu64 " dropped, %" PRIu64
              " calls from other threads ignored) %s %s\n",
              tracer.spans().size(), tracer.dropped_records(), tracer.foreign_calls(),
              ok ? "written to" : "could not be written to", path.c_str());
}

void VerifyProvenance(SimFabric& sim, Traffic& traffic, Report& report) {
  SimulatedFabric& fabric = sim.fabric();
  auto divergence = [&fabric] {
    uint64_t n = 0;
    for (uint32_t h = 0; h < fabric.host_count(); ++h) {
      n += fabric.agent(h).stats().path_divergence;
    }
    return n;
  };
  const uint64_t before = divergence();
  telemetry::SetEnabled(true);
  const size_t flows = std::min<size_t>(traffic.flow_count(), 2048);
  for (size_t f = 0; f < flows; ++f) {
    traffic.SendRequest(f, 64);
  }
  sim.Run();
  telemetry::SetEnabled(false);
  const uint64_t diverged = divergence() - before;
  report.Set("host.path_divergence", static_cast<double>(diverged));
  traffic.CheckLedger(report);
  if (diverged != 0) {
    report.Fail(std::to_string(diverged) + " packets took another path than promised");
  }
}

void ReportLatency(Report& report, const char* label, std::vector<double> samples_us) {
  const std::optional<Percentile> p50 = TailPercentile(samples_us, 50.0);
  const std::optional<Percentile> p99 = TailPercentile(samples_us, 99.0);
  if (!p50 || !p99) {
    report.Fail(std::string(label) + ": p99 needs " + std::to_string(SamplesNeededFor(99.0)) +
                " samples, have " + std::to_string(samples_us.size()));
    return;
  }
  std::printf("%s: p50 %.3f us, p99 %.3f us (n=%zu, %zu beyond p99)\n", label, p50->value,
              p99->value, p99->samples, p99->beyond);
  report.Set("latency_p50_us", p50->value);
  report.Set("latency_p99_us", p99->value);
}

void ReportSimLayers(Report& report, const Counters& before,
                     const Counters& after, const SpanTotals& spans, const TimedLoop& loop,
                     const LayerExtras& extras) {
  Counters d = after - before;
  auto span = [&spans](Layer layer) { return spans[static_cast<size_t>(layer)]; };
  auto copy = [&report, &d](const char* name) { report.Set(name, d[name]); };

  const Ratio events_per_pkt{d["sim.events"], static_cast<double>(extras.data_delivered)};
  report.Set("sim.events", d["sim.events"]);
  report.Set("sim.events_per_pkt", events_per_pkt.value());
  // Self time of the simulator runs in the traced steps, per event those
  // steps executed: the handlers' own spans are subtracted, so what is left is
  // the event loop plus the work no wrapper sees (timers, controller serving).
  const Ratio run_self{
      static_cast<double>(span(Layer::kSimRun).self_ns + span(Layer::kChaosRun).self_ns),
      loop.traced_units};
  report.Set("sim.run_self_ns_per_event", run_self.value());
  report.Set("sim.pool_slots", after.at("sim.pool_slots"));
  copy("sim.windows");
  copy("sim.cross_posts");
  copy("net.delivered");
  copy("net.dropped_queue_full");
  copy("net.dropped_link_down");
  copy("net.dropped_gray");

  const Ratio copies{d["switch.port_event_rx"], d["switch.notifications_sent"]};
  report.Set("switch.rx_ns_per_pkt", span(Layer::kSwitchRx).BusyNsPerCall());
  copy("switch.forwarded");
  copy("switch.notifications_relayed");
  report.Set("switch.notify_copies_per_event", copies.value());
  copy("switch.alarms_suppressed");

  const Ratio hit = HitRatio(static_cast<uint64_t>(d["host.path_table_hits"]),
                             static_cast<uint64_t>(d["host.path_table_misses"]));
  report.Set("host.send_ns_per_call", span(Layer::kHostSend).BusyNsPerCall());
  report.Set("host.rx_ns_per_pkt", span(Layer::kHostRx).BusyNsPerCall());
  report.Set("host.path_table_hit_ratio", hit.value());
  copy("host.data_blocked");
  copy("host.path_requests");
  copy("host.verify_failures");
  copy("host.path_table_rebinds");
  copy("host.backup_promotions");
  copy("host.link_repairs");
  copy("host.floods_sent");
  copy("host.patches_applied");

  const Ratio wire_hit = HitRatio(static_cast<uint64_t>(d["ctrl.wire_cache_hits"]),
                                  static_cast<uint64_t>(d["ctrl.wire_cache_misses"]));
  const Ratio sssp_hit = HitRatio(static_cast<uint64_t>(d["ctrl.sssp_hits"]),
                                  static_cast<uint64_t>(d["ctrl.sssp_misses"]));
  const Ratio amplification{after.at("host.path_requests"), after.at("host.path_table_entries")};
  report.Set("ctrl.bring_up_s", extras.bring_up_s);
  report.Set("ctrl.rx_ns_per_pkt", span(Layer::kCtrlRx).BusyNsPerCall());
  copy("ctrl.queries_served");
  copy("ctrl.queries_failed");
  report.Set("ctrl.wire_cache_hit_ratio", wire_hit.value());
  copy("ctrl.wire_cache_misses");
  report.Set("ctrl.query_amplification", amplification.value());
  report.Set("ctrl.sssp_cache_hit_ratio", sssp_hit.value());
  copy("ctrl.patches_sent");

  const contracts::CounterSnapshot contract_counts = contracts::Counters();
  report.Set("contracts.hot_allocs", static_cast<double>(contract_counts.hot_allocs));
  if (contract_counts.hot_allocs != 0) {
    report.Fail(std::to_string(contract_counts.hot_allocs) + " allocations in hot scopes: " +
                contracts::LastViolationMessage());
  }
  report.Set("chaos.actions", static_cast<double>(extras.chaos_actions));
  report.Set("chaos.convergence_findings", static_cast<double>(extras.convergence_findings));
  report.Set("trace.overhead_ratio", loop.OverheadRatio());

  std::printf("ratio bases: sim.events_per_pkt %s (events/data packets), "
              "sim.run_self_ns_per_event %s (self ns/events in traced steps), "
              "switch.notify_copies_per_event %s (notification deliveries/alarms), "
              "host.path_table_hit_ratio %s (hits/lookups), "
              "ctrl.wire_cache_hit_ratio %s (hits/lookups), ctrl.sssp_cache_hit_ratio %s "
              "(hits/lookups), ctrl.query_amplification %s (requests/distinct host-destination "
              "pairs over the fabric's life)\n",
              events_per_pkt.Describe().c_str(), run_self.Describe().c_str(),
              copies.Describe().c_str(),
              hit.Describe().c_str(), wire_hit.Describe().c_str(), sssp_hit.Describe().c_str(),
              amplification.Describe().c_str());
  std::printf("trace overhead: %.0f ns/unit traced vs %.0f ns/unit untraced over %" PRIu64
              " steps\n",
              loop.traced_units > 0 ? loop.traced_ns / loop.traced_units : 0.0,
              loop.plain_units > 0 ? loop.plain_ns / loop.plain_units : 0.0, loop.steps);
}

}  // namespace fabricbench
