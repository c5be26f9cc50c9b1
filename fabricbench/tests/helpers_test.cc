// Tests for the benchmark's own measurement helpers.
#include <gtest/gtest.h>

#include <vector>

#include "fbench/stats.h"
#include "fbench/trace.h"

namespace fabricbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {
    v.push_back(i);  // descending, so the helper has to order them
  }
  return v;
}

TEST(TailPercentileTest, P99NeedsTenSamplesBeyondTheRank) {
  EXPECT_EQ(SamplesNeededFor(99.0), 1000u);
  EXPECT_EQ(SamplesNeededFor(50.0), 20u);

  std::vector<double> short_sample = OneTo(999);
  EXPECT_FALSE(TailPercentile(short_sample, 99.0).has_value());

  std::vector<double> enough = OneTo(1000);
  const auto p99 = TailPercentile(enough, 99.0);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->value, 990.0);  // nearest rank ceil(0.99 * 1000)
  EXPECT_EQ(p99->samples, 1000u);
  EXPECT_EQ(p99->beyond, 10u);
}

TEST(TailPercentileTest, MedianIsNearestRank) {
  std::vector<double> v = OneTo(101);
  const auto p50 = TailPercentile(v, 50.0);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->value, 51.0);
  EXPECT_EQ(p50->beyond, 50u);

  std::vector<double> empty;
  EXPECT_FALSE(TailPercentile(empty, 50.0).has_value());
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(SelfTimeTest, ChildrenAreSubtractedAtEveryLevel) {
  Tracer tracer(/*sample_seed=*/1, /*sample_one_in=*/1);
  tracer.SetEnabled(true);
  // sim.run [0,100] holds switch.rx [10,40], which holds host.send [20,30],
  // and host.rx [50,70].
  ASSERT_TRUE(tracer.Begin(Layer::kSimRun, 0, 0));
  ASSERT_TRUE(tracer.Begin(Layer::kSwitchRx, 0, 10));
  ASSERT_TRUE(tracer.Begin(Layer::kHostSend, 7, 20));
  tracer.End(30);
  tracer.End(40);
  ASSERT_TRUE(tracer.Begin(Layer::kHostRx, 0, 50));
  tracer.End(70);
  tracer.End(100);

  const SpanTotals& t = tracer.totals();
  auto at = [&t](Layer l) { return t[static_cast<size_t>(l)]; };
  EXPECT_EQ(at(Layer::kSimRun).busy_ns, 100);
  EXPECT_EQ(at(Layer::kSimRun).self_ns, 100 - 30 - 20);
  EXPECT_EQ(at(Layer::kSwitchRx).self_ns, 30 - 10);
  EXPECT_EQ(at(Layer::kHostSend).self_ns, 10);
  EXPECT_EQ(at(Layer::kHostRx).self_ns, 20);
  EXPECT_EQ(at(Layer::kHostSend).calls, 1u);

  // Recorded: the structural sim.run span and the one request-carrying span;
  // the sampled span's parent is the nearest recorded ancestor.
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].layer, Layer::kHostSend);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[1].request_id, 7u);
  EXPECT_EQ(tracer.spans()[1].end_ns, 30);
}

TEST(SelfTimeTest, DisabledTracerRecordsNothing) {
  Tracer tracer(1, 1);
  EXPECT_FALSE(tracer.Begin(Layer::kSimRun, 0, 0));
  EXPECT_EQ(tracer.totals()[0].calls, 0u);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(SpanTotalsTest, DifferenceIsPerLayer) {
  SpanTotals a{};
  SpanTotals b{};
  a[1] = LayerTotals{10, 1000, 600};
  b[1] = LayerTotals{4, 400, 100};
  const SpanTotals d = a - b;
  EXPECT_EQ(d[1].calls, 6u);
  EXPECT_EQ(d[1].busy_ns, 600);
  EXPECT_EQ(d[1].self_ns, 500);
  EXPECT_DOUBLE_EQ(d[1].BusyNsPerCall(), 100.0);
  EXPECT_DOUBLE_EQ(LayerTotals{}.BusyNsPerCall(), 0.0);
}

TEST(RatioTest, KeepsItsBase) {
  const Ratio hit = HitRatio(3, 1);
  EXPECT_DOUBLE_EQ(hit.value(), 0.75);
  EXPECT_DOUBLE_EQ(hit.base, 4.0);
  EXPECT_EQ(hit.Describe(), "0.75 (3/4)");

  const Ratio empty = HitRatio(0, 0);
  EXPECT_DOUBLE_EQ(empty.value(), 0.0);  // no lookups reads 0, never NaN
  EXPECT_EQ(empty.Describe(), "0 (0/0)");
}

}  // namespace
}  // namespace fabricbench
