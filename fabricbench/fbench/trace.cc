#include "fbench/trace.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "src/util/rng.h"

namespace fabricbench {
namespace {

bool Structural(Layer layer) {
  return layer == Layer::kSimRun || layer == Layer::kBringUp || layer == Layer::kChaosRun;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSimRun:
      return "sim.run";
    case Layer::kBringUp:
      return "ctrl.bring_up";
    case Layer::kChaosRun:
      return "chaos.run_schedule";
    case Layer::kSwitchRx:
      return "switch.rx";
    case Layer::kHostRx:
      return "host.rx";
    case Layer::kCtrlRx:
      return "ctrl.rx";
    case Layer::kHostSend:
      return "host.send";
    case Layer::kWirePing:
      return "wire.ping";
    case Layer::kCount:
      break;
  }
  return "?";
}

SpanTotals operator-(const SpanTotals& after, const SpanTotals& before) {
  SpanTotals out;
  for (size_t i = 0; i < kLayerCount; ++i) {
    out[i].calls = after[i].calls - before[i].calls;
    out[i].busy_ns = after[i].busy_ns - before[i].busy_ns;
    out[i].self_ns = after[i].self_ns - before[i].self_ns;
  }
  return out;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(uint64_t sample_seed, uint32_t sample_one_in)
    : owner_(std::this_thread::get_id()),
      sample_seed_(sample_seed),
      sample_one_in_(sample_one_in == 0 ? 1 : sample_one_in) {}

bool Tracer::Sampled(uint64_t request_id) const {
  return request_id != 0 &&
         dumbnet::SplitMix64(sample_seed_ ^ request_id).Next() % sample_one_in_ == 0;
}

bool Tracer::Begin(Layer layer, uint64_t request_id, int64_t now_ns) {
  if (!enabled_) {
    return false;
  }
  if (std::this_thread::get_id() != owner_) {
    foreign_calls_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const int32_t parent_record =
      stack_.empty() ? -1
                     : (stack_.back().record >= 0 ? stack_.back().record
                                                  : stack_.back().parent_record);
  int32_t record = -1;
  if (Structural(layer) || Sampled(request_id)) {
    if (spans_.size() < kMaxRecords) {
      record = static_cast<int32_t>(spans_.size());
      spans_.push_back(SpanRecord{layer, now_ns, now_ns, parent_record, request_id});
    } else {
      ++dropped_records_;
    }
  }
  stack_.push_back(Frame{layer, now_ns, 0, record, parent_record, request_id});
  return true;
}

void Tracer::End(int64_t now_ns) {
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t duration = now_ns - frame.start_ns;
  LayerTotals& t = totals_[static_cast<size_t>(frame.layer)];
  ++t.calls;
  t.busy_ns += duration;
  t.self_ns += duration - frame.child_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (frame.record >= 0) {
    spans_[static_cast<size_t>(frame.record)].end_ns = now_ns;
  }
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"request_id\":%" PRIu64
                 "}}\n",
                 i == 0 ? "" : ",", LayerName(s.layer),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 s.request_id);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace fabricbench
