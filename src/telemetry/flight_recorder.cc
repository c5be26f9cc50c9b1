#include "src/telemetry/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "src/util/logging.h"

namespace dumbnet {
namespace telemetry {

namespace {
constexpr size_t kDefaultCapacity = 64 * 1024;

const char* const kComponentNames[kComponentCount] = {
    "simulator", "network", "switch", "host", "controller", "transport", "audit", "log",
};

constexpr size_t kEventKindCount = 17;
const char* const kEventKindNames[kEventKindCount] = {
    "progress",   "send",       "receive", "forward", "drop",      "failover",
    "repair",     "retransmit", "timeout", "discovery", "path_serve", "patch",
    "gossip",     "divergence", "audit_failure", "log_event", "giveup",
};

bool ParseComponent(const std::string& s, Component* out) {
  for (size_t i = 0; i < kComponentCount; ++i) {
    if (s == kComponentNames[i]) {
      *out = static_cast<Component>(i);
      return true;
    }
  }
  return false;
}

bool ParseEventKind(const std::string& s, EventKind* out) {
  for (size_t i = 0; i < kEventKindCount; ++i) {
    if (s == kEventKindNames[i]) {
      *out = static_cast<EventKind>(i);
      return true;
    }
  }
  return false;
}

}  // namespace

const char* ComponentName(Component c) {
  size_t i = static_cast<size_t>(c);
  return i < kComponentCount ? kComponentNames[i] : "unknown";
}

const char* EventKindName(EventKind k) {
  size_t i = static_cast<size_t>(k);
  return i < kEventKindCount ? kEventKindNames[i] : "unknown";
}

FlightRecorder::FlightRecorder() : capacity_(kDefaultCapacity) {
  ring_.reserve(capacity_);
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // never destroyed
  return *recorder;
}

void FlightRecorder::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<size_t>(1, capacity);
  ring_.clear();
  ring_.reserve(capacity_);
  next_ = 0;
  wrapped_ = false;
}

size_t FlightRecorder::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void FlightRecorder::Record(const TraceEvent& ev) {
  std::lock_guard<std::mutex> lock(mu_);
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
    return;
  }
  ring_[next_] = ev;
  next_ = (next_ + 1) % capacity_;
  wrapped_ = true;
}

std::vector<TraceEvent> FlightRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (wrapped_) {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_), ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  } else {
    out = ring_;
  }
  return out;
}

std::vector<TraceEvent> FlightRecorder::LastN(size_t n) const {
  std::vector<TraceEvent> all = Snapshot();
  if (all.size() > n) {
    all.erase(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(all.size() - n));
  }
  return all;
}

size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  wrapped_ = false;
  total_ = 0;
}

bool FlightRecorder::SaveTo(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  WriteTextDump(out, Snapshot());
  return static_cast<bool>(out);
}

void FlightRecorder::DumpOnFailure(const char* why, size_t n) const {
  std::vector<TraceEvent> tail = LastN(n);
  std::ostringstream os;
  os << "=== flight recorder: last " << tail.size() << " events (" << why << ") ===\n";
  WriteTextDump(os, tail);
  os << "=== end flight recorder dump ===\n";
  std::fputs(os.str().c_str(), stderr);
}

namespace {

void RecordLogKv(const LogKvEvent& ev) {
  if (!Enabled()) {
    return;
  }
  TraceEvent trace;
  trace.ts_ns = ev.has_time ? ev.time_ns : 0;
  trace.name = ev.event;
  trace.component = Component::kLog;
  trace.kind = EventKind::kLogEvent;
  FlightRecorder::Global().Record(trace);
}

}  // namespace

void FlightRecorder::InstallLogCapture() { SetLogKvSink(&RecordLogKv); }

void WriteTextDump(std::ostream& os, const std::vector<TraceEvent>& events) {
  os << "dumbnet-flight-recorder v1\n";
  uint64_t seq = 0;
  for (const TraceEvent& ev : events) {
    os << seq++ << ' ' << ev.ts_ns << ' ' << ComponentName(ev.component) << ' '
       << EventKindName(ev.kind) << ' ' << ev.id << ' ' << ev.arg;
    if (ev.name != nullptr) {
      os << ' ' << ev.name;
    }
    os << '\n';
  }
}

bool TraceDump::Load(std::istream& is, TraceDump* out, std::string* error) {
  out->events.clear();
  out->names.clear();
  std::string line;
  if (!std::getline(is, line) || line != "dumbnet-flight-recorder v1") {
    *error = "missing 'dumbnet-flight-recorder v1' header";
    return false;
  }
  size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    std::istringstream ls(line);
    uint64_t seq = 0;
    TraceEvent ev;
    std::string component;
    std::string kind;
    if (!(ls >> seq >> ev.ts_ns >> component >> kind >> ev.id >> ev.arg)) {
      *error = "malformed event at line " + std::to_string(line_no);
      return false;
    }
    if (!ParseComponent(component, &ev.component)) {
      *error = "unknown component '" + component + "' at line " + std::to_string(line_no);
      return false;
    }
    if (!ParseEventKind(kind, &ev.kind)) {
      *error = "unknown event kind '" + kind + "' at line " + std::to_string(line_no);
      return false;
    }
    std::string name;
    if (ls >> name) {
      out->names.push_back(name);
      ev.name = out->names.back().c_str();
    }
    out->events.push_back(ev);
  }
  return true;
}

void WriteChromeTrace(std::ostream& os, const std::vector<TraceEvent>& events) {
  os << "{\"traceEvents\": [\n";
  bool first = true;
  // Lane labels so chrome://tracing names each component's row.
  for (size_t i = 0; i < kComponentCount; ++i) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    os << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " << i
       << ", \"args\": {\"name\": \"" << kComponentNames[i] << "\"}}";
  }
  for (const TraceEvent& ev : events) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    // ts is microseconds (double) in the trace_event format.
    const double ts_us = static_cast<double>(ev.ts_ns) / 1e3;
    os << "  {\"name\": \"";
    if (ev.name != nullptr) {
      os << ev.name;
    } else {
      os << EventKindName(ev.kind);
    }
    os << "\", \"cat\": \"" << EventKindName(ev.kind) << "\", \"ph\": \"i\", \"s\": \"t\""
       << ", \"ts\": " << ts_us << ", \"pid\": 1, \"tid\": "
       << static_cast<unsigned>(ev.component) << ", \"args\": {\"id\": " << ev.id
       << ", \"arg\": " << ev.arg << "}}";
  }
  os << "\n]}\n";
}

void PrintTopReport(std::ostream& os, const std::vector<TraceEvent>& events, size_t top_n) {
  uint64_t by_component[kComponentCount] = {};
  std::map<std::pair<std::string, std::string>, uint64_t> by_pair;
  int64_t ts_min = 0;
  int64_t ts_max = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    size_t c = static_cast<size_t>(ev.component);
    if (c < kComponentCount) {
      ++by_component[c];
    }
    ++by_pair[{ComponentName(ev.component),
               ev.name != nullptr ? ev.name : EventKindName(ev.kind)}];
    if (i == 0) {
      ts_min = ts_max = ev.ts_ns;
    } else {
      ts_min = std::min(ts_min, ev.ts_ns);
      ts_max = std::max(ts_max, ev.ts_ns);
    }
  }
  os << "events: " << events.size() << "  span: "
     << static_cast<double>(ts_max - ts_min) / 1e6 << " ms\n";
  os << "by component:\n";
  for (size_t i = 0; i < kComponentCount; ++i) {
    if (by_component[i] != 0) {
      os << "  " << kComponentNames[i] << ": " << by_component[i] << "\n";
    }
  }
  std::vector<std::pair<uint64_t, std::pair<std::string, std::string>>> ranked;
  ranked.reserve(by_pair.size());
  for (const auto& [key, n] : by_pair) {
    ranked.emplace_back(n, key);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) {
      return a.first > b.first;
    }
    return a.second < b.second;
  });
  if (ranked.size() > top_n) {
    ranked.resize(top_n);
  }
  os << "top " << ranked.size() << " (component, event):\n";
  for (const auto& [n, key] : ranked) {
    os << "  " << key.first << " " << key.second << ": " << n << "\n";
  }
}

}  // namespace telemetry
}  // namespace dumbnet
