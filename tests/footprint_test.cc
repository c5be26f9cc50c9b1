// Footprint conflict semantics (MergeEffects / EffectsConflict), the
// simulator's batch-level hazard detection built on top of them, and the
// switch relay filter's annotation as seen by that detection.
#include "src/sim/footprint.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/switch/dumb_switch.h"
#include "src/topo/topology.h"

namespace dumbnet {
namespace footprint {
namespace {

FpEffect Read() { return FpEffect{FpAccess::kRead, nullptr}; }
FpEffect Write() { return FpEffect{FpAccess::kWrite, nullptr}; }
FpEffect Commute(const char* reason) { return FpEffect{FpAccess::kCommute, reason}; }

TEST(FootprintEffectTest, MergeCollapsesWriteOverCommuteOverRead) {
  EXPECT_EQ(MergeEffects(Read(), Read()).access, FpAccess::kRead);
  EXPECT_EQ(MergeEffects(Read(), Write()).access, FpAccess::kWrite);
  EXPECT_EQ(MergeEffects(Write(), Read()).access, FpAccess::kWrite);
  const FpEffect rc = MergeEffects(Read(), Commute("max-merge"));
  EXPECT_EQ(rc.access, FpAccess::kCommute);
  EXPECT_STREQ(rc.reason, "max-merge");
  EXPECT_EQ(MergeEffects(Commute("max-merge"), Write()).access, FpAccess::kWrite);
}

TEST(FootprintEffectTest, TwoCommuteReasonsEscalateToWrite) {
  // One handler claiming membership in two different commuting families has no
  // single algebraic argument for the combined update.
  EXPECT_EQ(MergeEffects(Commute("max-merge"), Commute("set-union")).access,
            FpAccess::kWrite);
  const FpEffect same = MergeEffects(Commute("max-merge"), Commute("max-merge"));
  EXPECT_EQ(same.access, FpAccess::kCommute);
  EXPECT_STREQ(same.reason, "max-merge");
}

TEST(FootprintEffectTest, ConflictMatrix) {
  EXPECT_FALSE(EffectsConflict(Read(), Read()));
  EXPECT_TRUE(EffectsConflict(Read(), Write()));
  EXPECT_TRUE(EffectsConflict(Write(), Write()));
  EXPECT_TRUE(EffectsConflict(Write(), Commute("max-merge")));
  EXPECT_FALSE(EffectsConflict(Commute("max-merge"), Commute("max-merge")));
  EXPECT_TRUE(EffectsConflict(Commute("max-merge"), Commute("set-union")));
  // The commute claim covers other writers, not observers.
  EXPECT_TRUE(EffectsConflict(Read(), Commute("max-merge")));
}

TEST(FootprintEffectTest, SameReasonComparesContentNotAddress) {
  const std::string a = "max-merge";
  const std::string b = "max-merge";
  EXPECT_TRUE(SameReason(a.c_str(), b.c_str()));
  EXPECT_FALSE(SameReason("max-merge", "set-union"));
  EXPECT_TRUE(SameReason(nullptr, nullptr));
  EXPECT_FALSE(SameReason("max-merge", nullptr));
}

#ifdef DUMBNET_FOOTPRINTS_ENABLED

class FootprintSimTest : public ::testing::Test {
 protected:
  void TearDown() override { SetEnabled(false); }

  // Schedules two events at the same timestamp running `a` then `b`.
  void RunPair(std::function<void()> a, std::function<void()> b) {
    sim_.ScheduleAt(10, std::move(a));
    sim_.ScheduleAt(10, std::move(b));
    sim_.Run();
  }

  Simulator sim_;
};

TEST_F(FootprintSimTest, WriteWritePairIsAHazard) {
  SetEnabled(true);
  std::vector<BatchHazard> hazards;
  sim_.SetHazardHook([&hazards](const BatchHazard& h) { hazards.push_back(h); });
  RunPair(
      [] {
        DN_FP_SCOPE("test.a", 1);
        DN_FP_WRITE(kScenario, 42);
      },
      [] {
        DN_FP_SCOPE("test.b", 2);
        DN_FP_WRITE(kScenario, 42);
      });
  ASSERT_EQ(sim_.hazards_detected(), 1u);
  ASSERT_EQ(hazards.size(), 1u);
  EXPECT_EQ(hazards[0].at, 10);
  EXPECT_EQ(hazards[0].batch_size, 2u);
  EXPECT_EQ(hazards[0].pos_a, 0u);
  EXPECT_EQ(hazards[0].pos_b, 1u);
  EXPECT_EQ(hazards[0].space, FpSpace::kScenario);
  EXPECT_EQ(hazards[0].id, 42u);
  EXPECT_STREQ(hazards[0].label_a, "test.a");
  EXPECT_STREQ(hazards[0].label_b, "test.b");
  std::string line;
  FormatHazard(hazards[0], line);
  EXPECT_NE(line.find("test.a"), std::string::npos) << line;
}

TEST_F(FootprintSimTest, SameReasonCommutesAreClean) {
  SetEnabled(true);
  RunPair([] { DN_FP_COMMUTES(kScenario, 42, "max-merge"); },
          [] { DN_FP_COMMUTES(kScenario, 42, "max-merge"); });
  EXPECT_EQ(sim_.hazards_detected(), 0u);
}

TEST_F(FootprintSimTest, DifferentReasonCommutesConflict) {
  SetEnabled(true);
  RunPair([] { DN_FP_COMMUTES(kScenario, 42, "max-merge"); },
          [] { DN_FP_COMMUTES(kScenario, 42, "set-union"); });
  EXPECT_EQ(sim_.hazards_detected(), 1u);
}

TEST_F(FootprintSimTest, ReadAgainstCommuteConflicts) {
  SetEnabled(true);
  RunPair([] { DN_FP_READ(kScenario, 42); },
          [] { DN_FP_COMMUTES(kScenario, 42, "max-merge"); });
  EXPECT_EQ(sim_.hazards_detected(), 1u);
}

TEST_F(FootprintSimTest, ReadsAndDisjointEntitiesAreClean) {
  SetEnabled(true);
  RunPair([] { DN_FP_READ(kScenario, 42); }, [] { DN_FP_READ(kScenario, 42); });
  sim_.ScheduleAt(20, [] { DN_FP_WRITE(kScenario, 1); });
  sim_.ScheduleAt(20, [] { DN_FP_WRITE(kScenario, 2); });  // different entity
  sim_.ScheduleAt(30, [] { DN_FP_WRITE(kHost, 1); });
  sim_.ScheduleAt(30, [] { DN_FP_WRITE(kScenario, 1); });  // different space
  sim_.Run();
  EXPECT_EQ(sim_.hazards_detected(), 0u);
}

TEST_F(FootprintSimTest, MixedCommuteReasonsInOneEventEscalate) {
  SetEnabled(true);
  // Event A claims two commuting families for the same entity -> effective
  // Write; even a same-family commute in event B now conflicts.
  RunPair(
      [] {
        DN_FP_COMMUTES(kScenario, 42, "max-merge");
        DN_FP_COMMUTES(kScenario, 42, "set-union");
      },
      [] { DN_FP_COMMUTES(kScenario, 42, "max-merge"); });
  EXPECT_EQ(sim_.hazards_detected(), 1u);
}

TEST_F(FootprintSimTest, RuntimeDisabledCollectsNothing) {
  // Default state: compiled in but not enabled. Conflicting writes must not
  // be collected, and singleton batches never count toward batch indices.
  RunPair([] { DN_FP_WRITE(kScenario, 42); }, [] { DN_FP_WRITE(kScenario, 42); });
  EXPECT_EQ(sim_.hazards_detected(), 0u);
}

TEST_F(FootprintSimTest, SingletonBatchesDoNotAdvanceBatchIndex) {
  SetEnabled(true);
  sim_.ScheduleAt(10, [] { DN_FP_WRITE(kScenario, 42); });
  sim_.ScheduleAt(20, [] { DN_FP_WRITE(kScenario, 42); });
  sim_.Run();
  EXPECT_EQ(sim_.batches_formed(), 0u);
  EXPECT_EQ(sim_.hazards_detected(), 0u);
  sim_.ScheduleAt(30, [] {});
  sim_.ScheduleAt(30, [] {});
  sim_.Run();
  EXPECT_EQ(sim_.batches_formed(), 1u);
}

TEST_F(FootprintSimTest, AlarmRelayFilterCommutesYetStaysVisible) {
  Topology topo;
  topo.AddSwitch(4);  // unwired: relayed copies go nowhere
  Network net(&sim_, &topo);
  DumbSwitch sw(&net, 0);
  const uint64_t cell = DumbSwitch::AlarmFilterFootprintId(sw.uid());
  auto copy_of = [](uint64_t seq) {
    Packet pkt;
    pkt.eth.ether_type = kEtherTypeDumbNet;
    pkt.payload = PortEventPayload{0x5100000000000007ULL, 3, false, 4, seq, 0};
    return pkt;
  };
  SetEnabled(true);
  std::vector<BatchHazard> hazards;
  sim_.SetHazardHook([&hazards](const BatchHazard& h) { hazards.push_back(h); });

  // Two copies of one alarm reach the switch at one instant on different ports:
  // one is relayed, one dropped, in either order. No hazard.
  RunPair([&] { sw.HandlePacket(copy_of(11), 1); },
          [&] { sw.HandlePacket(copy_of(11), 2); });
  EXPECT_TRUE(hazards.empty());
  EXPECT_EQ(sw.stats().notifications_relayed, 1u);
  EXPECT_EQ(sw.stats().alarm_duplicates_dropped, 1u);

  // A plain writer of the filter cell at that instant conflicts with the relay
  // next to it (adjacent conflicting accessors are the reported generator set).
  sim_.ScheduleAt(20, [&] { sw.HandlePacket(copy_of(12), 1); });
  sim_.ScheduleAt(20, [&] { sw.HandlePacket(copy_of(12), 2); });
  sim_.ScheduleAt(20, [cell] {
    DN_FP_SCOPE("test.writer", 0);
    DN_FP_WRITE(kSwitch, cell);
  });
  sim_.Run();
  ASSERT_EQ(hazards.size(), 1u);
  const BatchHazard& h = hazards[0];
  EXPECT_EQ(h.space, FpSpace::kSwitch);
  EXPECT_EQ(h.id, cell);
  EXPECT_EQ(h.pos_a, 1u);
  EXPECT_EQ(h.pos_b, 2u);
  EXPECT_STREQ(h.label_a, "switch.alarm_relay");
  EXPECT_EQ(h.access_a, FpAccess::kCommute);
  EXPECT_STREQ(h.reason_a, DumbSwitch::kAlarmFilterCommutes);
  EXPECT_STREQ(h.label_b, "test.writer");
  EXPECT_EQ(h.access_b, FpAccess::kWrite);
}

#endif  // DUMBNET_FOOTPRINTS_ENABLED

}  // namespace
}  // namespace footprint
}  // namespace dumbnet
