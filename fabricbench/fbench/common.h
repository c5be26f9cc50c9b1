// Shared machinery of the workloads: a SimulatedFabric with the
// tracing wrappers, the traffic generator with its delivery ledger, counter
// snapshots over the library's public stats, and the per-layer report.
#ifndef FABRICBENCH_FBENCH_COMMON_H_
#define FABRICBENCH_FBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fbench/stats.h"
#include "fbench/trace.h"
#include "fbench/workloads.h"
#include "src/core/fabric.h"
#include "src/util/rng.h"

namespace fabricbench {

// Named counters read from the library's public stats (summed over switches,
// hosts and shards). Subtracting two snapshots gives the work of one phase.
using Counters = std::map<std::string, double>;
Counters operator-(const Counters& after, const Counters& before);

// A SimulatedFabric (library default shard count) whose Run calls are spans,
// with a span-recording forwarder in front of every switch and host when tracing.
class SimFabric {
 public:
  SimFabric(dumbnet::Topology topo, Tracer* tracer, uint32_t controller_host);

  SimFabric(const SimFabric&) = delete;
  SimFabric& operator=(const SimFabric&) = delete;

  dumbnet::SimulatedFabric& fabric() { return fabric_; }
  Tracer* tracer() { return tracer_; }
  uint64_t Run();
  uint64_t RunUntil(dumbnet::TimeNs deadline);
  Counters Snapshot();

 private:
  dumbnet::SimulatedFabric fabric_;
  Tracer* tracer_;
  uint64_t port_event_rx_ = 0;  // notification copies received, traced runs only
  std::vector<std::unique_ptr<dumbnet::NetNode>> wrappers_;
};

// One (src, dst) flow. Flow ids are index + 1, so 0 never names a flow.
struct Flow {
  uint32_t src = 0;
  uint32_t dst = 0;
  uint64_t src_mac = 0;
  uint64_t dst_mac = 0;
  // Open-loop schedule: request seq >= seq0 is due at first_due + (seq - seq0) * period.
  dumbnet::TimeNs period = 0;
  dumbnet::TimeNs first_due = 0;
  dumbnet::TimeNs next_due = 0;
  uint64_t seq0 = 0;
  // Per request seq: bit 0 = request delivered, bit 1 = echo delivered.
  std::vector<uint8_t> got;

  dumbnet::TimeNs DueTime(uint64_t seq) const {
    return first_due + static_cast<dumbnet::TimeNs>(seq - seq0) * period;
  }
};

struct TrafficCounts {
  uint64_t requests_sent = 0;
  uint64_t requests_delivered = 0;
  uint64_t echoes_sent = 0;
  uint64_t echoes_delivered = 0;

  uint64_t sent() const { return requests_sent + echoes_sent; }
  uint64_t delivered() const { return requests_delivered + echoes_delivered; }
  TrafficCounts operator-(const TrafficCounts& o) const;
  TrafficCounts& operator+=(const TrafficCounts& o);
};

// Sends data through HostAgent::Send and checks every delivery against a
// ledger: each delivered data packet must match exactly one sent (source,
// destination, flow id, seq). Optionally echoes each request with 64 B.
class Traffic {
 public:
  // Open-loop requests alternate small and large; echoes are small.
  static constexpr int64_t kSmallBytes = 64;
  static constexpr int64_t kLargeBytes = 1500;
  static constexpr int64_t kEchoBytes = 64;

  Traffic(dumbnet::SimulatedFabric* fabric, Tracer* tracer, bool echo);

  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;

  // Whether open-loop request `seq` of a flow is a small one.
  static bool IsSmall(uint64_t seq) { return seq % 2 == 0; }

  size_t AddFlow(uint32_t src, uint32_t dst);
  size_t flow_count() const { return flows_.size(); }

  // Sends flow `f`'s next request.
  void SendRequest(size_t f, int64_t bytes);
  // Starts flow `f`'s open loop: one request every `period`, first at
  // `first_due`, alternating small and large, until StopAt().
  void Arm(size_t f, dumbnet::TimeNs first_due, dumbnet::TimeNs period);
  // Requests due at or after `t` are not sent.
  void StopAt(dumbnet::TimeNs t) { stop_at_ = t; }

  const TrafficCounts& counts() const { return counts_; }
  // Flows with any request not delivered.
  uint64_t IncompleteFlows() const;
  // Arms every flow's open loop so that the busiest link direction runs at
  // `load` of `link_bytes_per_ns`: flow f's period is rel[f] * unit with
  // rel[f] drawn from [1, 2) and unit derived from the routes the flows are
  // bound to (so every flow must have sent once). Returns the longest period.
  dumbnet::TimeNs ArmAll(dumbnet::Rng& rng, dumbnet::TimeNs start, double load,
                         double link_bytes_per_ns);
  // Fails the report on the first ledger violation seen so far.
  void CheckLedger(Report& report) const;

  // Called after a delivery passed the ledger checks.
  std::function<void(const Flow&, size_t index, uint64_t seq, dumbnet::TimeNs now)> on_request;
  std::function<void(const Flow&, uint64_t seq, dumbnet::TimeNs now)> on_echo;

 private:
  void Fire(size_t f);
  // The most bytes per ns any link direction is offered if flow f sends its
  // mean request size every rel_period[f] ns (and echoes come back).
  double BusiestLinkBytesPerNs(const std::vector<double>& rel_period) const;
  void OnData(uint32_t host, const dumbnet::Packet& pkt, const dumbnet::DataPayload& data);
  void Violation(const std::string& what);

  dumbnet::SimulatedFabric* fabric_;
  Tracer* tracer_;
  bool echo_;
  dumbnet::TimeNs stop_at_ = INT64_MAX;
  std::vector<Flow> flows_;
  TrafficCounts counts_;
  uint64_t violations_ = 0;
  std::string first_violation_;
};

// CPU time this process has run, in ns. Time it waited for a CPU (another
// process of the VM ran, the shared host ran another guest, a CPU quota was
// spent) is not in it. The simulated workloads run the whole fabric on one
// thread that never waits, so their CPU time is the time their work took.
int64_t CpuNs();

// The machine's speed right now: wall ns per round trip of a one-byte
// ping-pong between two threads of this process over a UNIX socketpair, on
// whatever CPUs the calling thread may use.
double PingPongNs();

// The wire runtime's threads wait on one another, so CPU time does not measure
// it; its wall-clock figures are reported in reference time: scaled to a
// machine on which PingPongNs() reads 10 us. On a shared VM the whole machine
// slows by 30-50% for seconds to minutes at a time; pinned to one CPU, the
// ping-pong is the same pair of context switches every hop of a ping makes and
// slows with them, so a time measured next to a ping-pong reading keeps its
// size in reference time.
inline constexpr double kReferencePingPongNs = 10000.0;

// Reference time of `wall` (any unit) measured next to a ping-pong of `pp_ns`.
inline double ToReferenceTime(double wall, double pp_ns) {
  return wall * kReferencePingPongNs / pp_ns;
}

// The wire runtime's delivery rate. The timed phase is cut into slices of at
// least half a second of whole steps, each followed by a ping-pong reading,
// and more readings may be taken inside a long step. Reading time is not
// slice time. A slice's rate goes to reference time with the mean of its
// readings, and the rate is the median over slices, so a short stall of the
// shared machine moves it little.
class Slices {
 public:
  // `delivered()` reads the running count of data packets delivered.
  explicit Slices(std::function<uint64_t()> delivered) : delivered_(std::move(delivered)) {}

  // Starts the first slice.
  void Start();
  // Ends the current slice once it has lasted half a second, or at once when
  // `last`. Called between steps.
  void Tick(bool last = false);
  // Takes a ping-pong reading for the current slice from inside a step, and
  // returns it.
  double Probe();

  // Median delivery rate over slices, per second of reference time.
  double MedianRate() const;
  // Prints the median rate in reference and in wall time.
  void Print() const;

 private:
  std::function<uint64_t()> delivered_;
  int64_t start_ns_ = 0;
  uint64_t start_delivered_ = 0;
  int64_t probe_ns_ = 0;     // time spent in Probe() in the current slice
  double probe_sum_ = 0.0;   // its readings
  int probes_ = 0;
  std::vector<double> rates_;     // data packets delivered per wall second
  std::vector<double> pingpong_;  // mean reading of each slice
};

// Wall-clock record of a timed phase. In traced runs every other step runs
// with tracing on; comparing the wall cost per unit of work of the two kinds
// of step gives the tracing overhead.
struct TimedLoop {
  double wall_s = 0.0;
  uint64_t steps = 0;
  // Peak RSS when the statistics window was first complete: a fixed amount of
  // work, so a faster build that does more work in the wall budget does not
  // read as a bigger one.
  double window_rss_mb = 0.0;
  // CPU time of the steps up to the one that completed the window.
  double window_cpu_s = 0.0;
  double traced_ns = 0.0;
  double traced_units = 0.0;
  double plain_ns = 0.0;
  double plain_units = 0.0;

  // Extra wall time per unit of work with tracing on, as a share of the
  // untraced cost; 0 when either kind of step did no work.
  double OverheadRatio() const;
};

// Runs `step(traced)` (returns units of work done) until `seconds` of wall
// time have passed and `done()` (the statistics window is complete; once
// true, it stays true) holds, ticking `slices` (nullptr: none) after every
// step. `at_window()` runs once, right after the step that completed the
// window: counts read there cover a fixed, seed-determined amount of work
// however fast the machine is.
TimedLoop RunTimed(double seconds, Tracer* tracer, const std::function<uint64_t(bool)>& step,
                   const std::function<bool()>& done, const std::function<void()>& at_window,
                   Slices* slices);

// A tracer for --trace 1 runs (recording on), nullptr otherwise. One flow in
// `sample_one_in` keeps its full spans.
std::unique_ptr<Tracer> MakeTracer(const Options& opts, uint32_t sample_one_in = 64);
// The set-ups of one run.
struct SetupTimes {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;

  // Records a set-up that took `wall` seconds and `cpu` seconds of CPU time.
  void Add(double wall, double cpu);
  // Prints both medians.
  void Print() const;
};
// Whether to set up once more: setup_s is the median of at least 3 set-ups,
// and of more (up to 31) while they have taken under 2 s in all, so a fast
// set-up is not one noisy sample. Traced runs do not report setup_s and
// set up once.
bool SetUpAgain(const Options& opts, const SetupTimes& times);
// Writes the recorded spans as a Chrome trace under the work directory.
void WriteTrace(const Options& opts, const Tracer& tracer);

// Sends one request per flow (at most 2,048) with telemetry on, so every
// packet carries in-band path provenance, and fails the run on any
// host.path_divergence. Sets host.path_divergence.
void VerifyProvenance(SimFabric& sim, Traffic& traffic, Report& report);
// Sets latency_p50_us and latency_p99_us from `samples_us`, failing the run
// when the p99 has fewer than 10 samples beyond it.
void ReportLatency(Report& report, const char* label, std::vector<double> samples_us);

struct LayerExtras {
  double bring_up_s = 0.0;
  uint64_t data_delivered = 0;
  uint64_t chaos_actions = 0;
  uint64_t convergence_findings = 0;
};

// Per-layer metrics of a simulated workload's timed phase: counts from
// `before` to `after` (the statistics window), per-call times and self time
// from the spans of the whole phase.
void ReportSimLayers(Report& report, const Counters& before,
                     const Counters& after, const SpanTotals& spans,
                     const TimedLoop& loop, const LayerExtras& extras);

}  // namespace fabricbench

#endif  // FABRICBENCH_FBENCH_COMMON_H_
