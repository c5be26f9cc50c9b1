// Tests of the FPGA resource model (Figure 7 substitution): calibration against
// the paper's synthesis numbers and the architectural scaling claims.
#include "src/fpga/resource_model.h"

#include <gtest/gtest.h>

#include "src/switch/dumb_switch.h"

namespace dumbnet {
namespace {

TEST(FpgaModelTest, CalibratedToPaperAtFourPorts) {
  FpgaResources dn = DumbNetSwitchResources(4);
  // Paper: 1,713 LUTs / 1,504 registers.
  EXPECT_NEAR(dn.luts, 1713, 20);
  EXPECT_NEAR(dn.registers, 1504, 20);

  FpgaResources of = OpenFlowSwitchResources(4);
  // Paper: 16,070 LUTs / 17,193 registers.
  EXPECT_NEAR(of.luts, 16070, 50);
  EXPECT_NEAR(of.registers, 17193, 80);
}

TEST(FpgaModelTest, DumbNetReducesResourcesByNinetyPercentAtFourPorts) {
  FpgaResources dn = DumbNetSwitchResources(4);
  FpgaResources of = OpenFlowSwitchResources(4);
  // "even the unoptimized design reduces the FPGA resources utilization by
  // almost 90%".
  EXPECT_LT(static_cast<double>(dn.luts), 0.12 * static_cast<double>(of.luts));
  EXPECT_LT(static_cast<double>(dn.registers), 0.12 * static_cast<double>(of.registers));
}

TEST(FpgaModelTest, MonotonicInPorts) {
  uint32_t prev_luts = 0;
  uint32_t prev_regs = 0;
  for (uint32_t p = 2; p <= 32; p += 2) {
    FpgaResources r = DumbNetSwitchResources(p);
    EXPECT_GT(r.luts, prev_luts);
    EXPECT_GT(r.registers, prev_regs);
    prev_luts = r.luts;
    prev_regs = r.registers;
  }
}

TEST(FpgaModelTest, DumbNetStaysWithinFigureSevenEnvelope) {
  // Figure 7 shows ~30K elements at ~30 ports for the DumbNet design.
  FpgaResources r = DumbNetSwitchResources(30);
  EXPECT_GT(r.luts, 15000u);
  EXPECT_LT(r.luts, 40000u);
  EXPECT_GT(r.registers, 15000u);
  EXPECT_LT(r.registers, 45000u);
}

TEST(FpgaModelTest, QuadraticDemuxTermDominatesAtHighPorts) {
  // Doubling ports should roughly quadruple the demux-dominated area.
  FpgaResources a = DumbNetSwitchResources(16);
  FpgaResources b = DumbNetSwitchResources(32);
  double ratio = static_cast<double>(b.luts) / static_cast<double>(a.luts);
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 4.5);
}

TEST(FpgaModelTest, DumbNetPerPortAreaIsCheaperEverywhere) {
  for (uint32_t p = 2; p <= 48; p += 2) {
    EXPECT_LT(DumbNetSwitchResources(p).luts, OpenFlowSwitchResources(p).luts)
        << "at " << p << " ports";
  }
}

TEST(FpgaModelTest, AlarmFilterIsAFixedTermOutsideTheCalibration) {
  const uint32_t slots = static_cast<uint32_t>(DumbSwitch::kAlarmFilterSlots);
  FpgaResources filter = AlarmFilterResources(slots);
  // Per slot: 64 uid + 8 port + 64 seq + 1 up + 8 hops + 1 valid; plus the cursor.
  EXPECT_EQ(filter.registers, slots * 146u + 2u);
  EXPECT_GT(filter.luts, 0u);
  // The full-width key makes the filter a visible fixed cost beside the tiny
  // 4-port prototype, and a negligible one at data center port counts.
  const FpgaResources dn4 = DumbNetSwitchResources(4);
  EXPECT_LT(filter.registers, 0.4 * dn4.registers);
  EXPECT_LT(filter.luts, 0.15 * dn4.luts);
  EXPECT_LT(filter.registers, 0.02 * DumbNetSwitchResources(32).registers);
  // It scales with slots, not ports.
  EXPECT_EQ(AlarmFilterResources(2 * slots).registers, 2 * slots * 146u + 3u);
}

}  // namespace
}  // namespace dumbnet
