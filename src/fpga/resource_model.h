// Analytic FPGA resource model for Figure 7.
//
// Substitution note (see DESIGN.md): we have no FPGA toolchain, so instead of
// synthesizing Verilog we model LUT/flip-flop usage from the two architectures'
// structure and calibrate against the synthesis numbers the paper reports on the
// ONetSwitch45 (Zynq-7000):
//
//   DumbNet 4-port:   1,713 LUTs /  1,504 registers (1,228 lines of Verilog)
//   OpenFlow 4-port: 16,070 LUTs / 17,193 registers (NetFPGA OpenFlow switch)
//
// DumbNet's two-stage pipeline (Figure 5) has a per-port pop-label module (linear
// in P) and a P-way output demux per input port (quadratic in P, small constant).
// The OpenFlow reference needs a multi-protocol parser and flow-table/TCAM
// machinery per port plus its own crossbar, giving it a large constant and a much
// larger per-port cost. Both exclude I/O buffers and MACs (as the paper does).
// The alarm relay filter (not in the paper; DESIGN.md §6) is charged separately:
// it is a fixed ring of alarm keys whose size does not depend on P.
#ifndef DUMBNET_SRC_FPGA_RESOURCE_MODEL_H_
#define DUMBNET_SRC_FPGA_RESOURCE_MODEL_H_

#include <cstdint>

namespace dumbnet {

struct FpgaResources {
  uint32_t luts = 0;
  uint32_t registers = 0;
};

struct FpgaModelParams {
  // DumbNet: base control + per-port pop-label + per-(port pair) demux leg.
  uint32_t dn_base_luts = 513;
  uint32_t dn_pop_luts = 200;
  uint32_t dn_demux_luts = 25;
  uint32_t dn_base_regs = 424;
  uint32_t dn_pop_regs = 150;
  uint32_t dn_demux_regs = 30;
  // OpenFlow: flow-table + parser base, heavy per-port cost, crossbar leg.
  uint32_t of_base_luts = 11990;
  uint32_t of_port_luts = 1000;
  uint32_t of_xbar_luts = 5;
  uint32_t of_base_regs = 12949;
  uint32_t of_port_regs = 1045;
  uint32_t of_xbar_regs = 4;
};

// Resources of a P-port DumbNet switch (Figure 5 architecture).
FpgaResources DumbNetSwitchResources(uint32_t ports,
                                     const FpgaModelParams& params = FpgaModelParams());

// Resources of the NetFPGA OpenFlow reference switch at P ports.
FpgaResources OpenFlowSwitchResources(uint32_t ports,
                                      const FpgaModelParams& params = FpgaModelParams());

// Resources of an alarm relay filter with `entries` slots. A slot holds the full
// alarm key (64-bit origin uid, 8-bit port, 64-bit event_seq, up bit), the 8-bit
// most hops relayed and a valid bit; the key is not hashed or truncated, since a
// false match would drop a copy and lose reach. Registers: the slots plus the
// ring cursor. LUTs: one 6-input LUT per three key or hop bits compared per slot.
FpgaResources AlarmFilterResources(uint32_t entries);

}  // namespace dumbnet

#endif  // DUMBNET_SRC_FPGA_RESOURCE_MODEL_H_
