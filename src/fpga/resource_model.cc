#include "src/fpga/resource_model.h"

namespace dumbnet {

FpgaResources DumbNetSwitchResources(uint32_t ports, const FpgaModelParams& params) {
  FpgaResources out;
  out.luts = params.dn_base_luts + params.dn_pop_luts * ports +
             params.dn_demux_luts * ports * ports;
  out.registers = params.dn_base_regs + params.dn_pop_regs * ports +
                  params.dn_demux_regs * ports * ports;
  return out;
}

FpgaResources OpenFlowSwitchResources(uint32_t ports, const FpgaModelParams& params) {
  FpgaResources out;
  out.luts = params.of_base_luts + params.of_port_luts * ports +
             params.of_xbar_luts * ports * ports;
  out.registers = params.of_base_regs + params.of_port_regs * ports +
                  params.of_xbar_regs * ports * ports;
  return out;
}

FpgaResources AlarmFilterResources(uint32_t entries) {
  constexpr uint32_t kKeyBits = 64 + 8 + 64 + 1;  // uid, port, event_seq, up
  constexpr uint32_t kHopsBits = 8;
  constexpr uint32_t kValidBits = 1;
  uint32_t cursor_bits = 0;
  while ((1u << cursor_bits) < entries) {
    ++cursor_bits;
  }
  FpgaResources out;
  out.luts = entries * ((kKeyBits + kHopsBits + 2) / 3);
  out.registers = entries * (kKeyBits + kHopsBits + kValidBits) + cursor_bits;
  return out;
}

}  // namespace dumbnet
