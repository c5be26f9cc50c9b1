// Span tracer for the traced benchmark run. Spans are opened from the
// benchmark's own code around calls into each library layer (never from inside
// the library), kept in memory, and written out once at exit.
//
// Every span adds to its layer's call count, busy time and self time. A
// layer's self time is its span time minus the time covered by its child
// spans; spans nest strictly on the tracing thread, so the children's covered
// time is the sum of their durations. Full span records (name, start, end,
// parent, request id) are kept only for structural spans (simulation runs,
// bring-up, chaos schedules) and for a seeded sample of request ids.
//
// The tracer belongs to the thread that created it. Calls from any other
// thread are counted and otherwise ignored, so a multi-threaded simulation
// can never race on its state.
#ifndef FABRICBENCH_FBENCH_TRACE_H_
#define FABRICBENCH_FBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace fabricbench {

enum class Layer : uint8_t {
  kSimRun,    // SimulatedFabric::Run / RunUntil
  kBringUp,   // SimulatedFabric::BringUp / BringUpAdopted, WireFabric discovery
  kChaosRun,  // chaos::RunSchedule
  kSwitchRx,  // DumbSwitch::HandlePacket / HandlePortChange
  kHostRx,    // HostAgent::HandlePacket / HandlePortChange
  kCtrlRx,    // HostAgent::HandlePacket on the controller's host, path requests
  kHostSend,  // HostAgent::Send
  kWirePing,  // WireFabric::Ping
  kCount,
};

constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

const char* LayerName(Layer layer);

struct SpanRecord {
  Layer layer = Layer::kSimRun;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into Tracer::spans(); -1 = none recorded
  uint64_t request_id = 0;
};

struct LayerTotals {
  uint64_t calls = 0;
  int64_t busy_ns = 0;
  int64_t self_ns = 0;

  // Mean span time; 0 with no calls.
  double BusyNsPerCall() const {
    return calls == 0 ? 0.0 : static_cast<double>(busy_ns) / static_cast<double>(calls);
  }
};

using SpanTotals = std::array<LayerTotals, kLayerCount>;
// Per-layer totals of the spans closed between two readings.
SpanTotals operator-(const SpanTotals& after, const SpanTotals& before);

class Tracer {
 public:
  // Full span records kept; spans past this only add to the totals.
  static constexpr size_t kMaxRecords = size_t{1} << 20;

  // Request ids with SplitMix64(sample_seed ^ id) % sample_one_in == 0 keep
  // full spans.
  Tracer(uint64_t sample_seed, uint32_t sample_one_in);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Switches recording on or off. Only call with no span open.
  void SetEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Opens a span at `now_ns`. Returns false, recording nothing, when tracing is
  // off or the caller is not the owning thread; End() must then not be called.
  bool Begin(Layer layer, uint64_t request_id, int64_t now_ns);
  // Closes the innermost open span at `now_ns`.
  void End(int64_t now_ns);

  bool Sampled(uint64_t request_id) const;
  const SpanTotals& totals() const { return totals_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  uint64_t dropped_records() const { return dropped_records_; }
  uint64_t foreign_calls() const { return foreign_calls_.load(std::memory_order_relaxed); }

  // Chrome trace_event JSON ("X" events, microseconds). Returns false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Frame {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;      // time covered by direct children
    int32_t record;        // this span's record, or -1
    int32_t parent_record; // nearest enclosing recorded span, or -1
    uint64_t request_id;
  };

  const std::thread::id owner_;
  const uint64_t sample_seed_;
  const uint32_t sample_one_in_;
  bool enabled_ = false;
  std::vector<Frame> stack_;
  SpanTotals totals_{};
  std::vector<SpanRecord> spans_;
  uint64_t dropped_records_ = 0;
  std::atomic<uint64_t> foreign_calls_{0};
};

// Monotonic wall clock in ns.
int64_t NowNs();

// RAII span on the steady clock; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, Layer layer, uint64_t request_id = 0)
      : tracer_(tracer != nullptr && tracer->enabled() &&
                        tracer->Begin(layer, request_id, NowNs())
                    ? tracer
                    : nullptr) {}
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End(NowNs());
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* const tracer_;
};

}  // namespace fabricbench

#endif  // FABRICBENCH_FBENCH_TRACE_H_
