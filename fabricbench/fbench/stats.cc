#include "fbench/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace fabricbench {

size_t SamplesNeededFor(double p) {
  // Beyond the nearest rank ceil(p/100 * n) lie n - rank samples; the smallest
  // n with n - ceil(p/100 * n) >= kMinSamplesBeyond.
  size_t n = kMinSamplesBeyond + 1;
  while (n - static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n))) <
         kMinSamplesBeyond) {
    ++n;
  }
  return n;
}

std::optional<Percentile> TailPercentile(std::vector<double>& values, double p) {
  const size_t n = values.size();
  if (n == 0 || p <= 0.0 || p >= 100.0) {
    return std::nullopt;
  }
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) {
    return std::nullopt;
  }
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return Percentile{values[rank - 1], n, n - rank};
}

std::string Ratio::Describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.6g (%.0f/%.0f)", value(), num, base);
  return buf;
}

double Median(std::vector<double> values) {
  const size_t n = values.size();
  if (n == 0) {
    return 0.0;
  }
  auto mid = values.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(values.begin(), mid, values.end());
  if (n % 2 == 1) {
    return *mid;
  }
  return (*mid + *std::max_element(values.begin(), mid)) / 2.0;
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss survives execve, so a process
  // started by a bigger one (run.py's Python) would read its parent's peak.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0.0;
  }
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(status);
  return kb / 1024.0;
}

}  // namespace fabricbench
