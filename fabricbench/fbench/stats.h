// Small measurement helpers shared by every workload: percentiles that refuse
// to report a tail the sample cannot support, and ratios that keep their base.
#ifndef FABRICBENCH_FBENCH_STATS_H_
#define FABRICBENCH_FBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fabricbench {

// A reported percentile must have at least this many samples beyond it, so a
// p99 needs 1,000 samples.
constexpr size_t kMinSamplesBeyond = 10;

struct Percentile {
  double value = 0.0;
  size_t samples = 0;  // sample count the percentile was taken over
  size_t beyond = 0;   // samples strictly after the reported rank
};

// Nearest-rank percentile `p` (0 < p < 100) of `values`, which are sorted in
// place. Empty when fewer than kMinSamplesBeyond samples lie beyond the rank.
std::optional<Percentile> TailPercentile(std::vector<double>& values, double p);

// Samples needed before TailPercentile(p) reports anything.
size_t SamplesNeededFor(double p);

// A ratio that remembers what it was divided by. A zero base reads as 0, not
// NaN, and Describe() prints "value (num/base)" so the base is never lost.
struct Ratio {
  double num = 0.0;
  double base = 0.0;

  double value() const { return base > 0.0 ? num / base : 0.0; }
  std::string Describe() const;
};

// Share of lookups that hit: hits / (hits + misses).
inline Ratio HitRatio(uint64_t hits, uint64_t misses) {
  return Ratio{static_cast<double>(hits), static_cast<double>(hits + misses)};
}

// Median of `values`: the middle value, or the mean of the two middle values
// for an even count; 0 when empty.
double Median(std::vector<double> values);

// Peak resident set size of this process so far, in MB.
double PeakRssMb();

}  // namespace fabricbench

#endif  // FABRICBENCH_FBENCH_STATS_H_
