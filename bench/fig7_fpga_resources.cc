// Figure 7: FPGA resource utilization vs. number of ports.
//
// Paper result: the 4-port DumbNet switch uses 1,713 LUTs / 1,504 registers versus
// 16,070 / 17,193 for the NetFPGA OpenFlow switch (~90% reduction); DumbNet's curve
// grows with a small quadratic demux term, staying around 30K elements at 30 ports.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/fpga/resource_model.h"
#include "src/switch/dumb_switch.h"

using namespace dumbnet;

int main() {
  bench::Banner("Figure 7 — FPGA resource utilization vs #ports",
                "DumbNet 4-port: 1713 LUT / 1504 FF; OpenFlow 4-port: 16070 / 17193");

  std::printf("%6s %14s %14s %14s %14s %10s\n", "ports", "DumbNet LUTs", "DumbNet FFs",
              "OpenFlow LUTs", "OpenFlow FFs", "LUT ratio");
  for (uint32_t ports = 2; ports <= 32; ports += 2) {
    FpgaResources dn = DumbNetSwitchResources(ports);
    FpgaResources of = OpenFlowSwitchResources(ports);
    std::printf("%6u %14u %14u %14u %14u %9.1f%%\n", ports, dn.luts, dn.registers,
                of.luts, of.registers,
                100.0 * static_cast<double>(dn.luts) / static_cast<double>(of.luts));
  }

  FpgaResources dn4 = DumbNetSwitchResources(4);
  FpgaResources of4 = OpenFlowSwitchResources(4);
  std::printf("\nmeasured @4 ports: DumbNet %u/%u vs OpenFlow %u/%u "
              "(paper: 1713/1504 vs 16070/17193)\n",
              dn4.luts, dn4.registers, of4.luts, of4.registers);
  std::printf("resource reduction at 4 ports: %.1f%% LUTs, %.1f%% registers "
              "(paper: ~90%%)\n",
              100.0 * (1.0 - static_cast<double>(dn4.luts) / of4.luts),
              100.0 * (1.0 - static_cast<double>(dn4.registers) / of4.registers));

  // The alarm relay filter is not in the paper's design, so it is kept out of the
  // calibrated curve above and charged on its own. Its size does not grow with P.
  const uint32_t slots = static_cast<uint32_t>(DumbSwitch::kAlarmFilterSlots);
  FpgaResources filter = AlarmFilterResources(slots);
  std::printf("alarm relay filter (%u slots, not in the paper): %u LUTs / %u FFs, "
              "+%.1f%% registers at 4 ports, +%.1f%% at 32 ports\n",
              slots, filter.luts, filter.registers,
              100.0 * filter.registers / dn4.registers,
              100.0 * filter.registers / DumbNetSwitchResources(32).registers);
  return 0;
}
