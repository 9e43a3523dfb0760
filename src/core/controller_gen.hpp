#pragma once

#include <cstddef>

#include "core/monitor_gen.hpp"
#include "netlist/netlist.hpp"

namespace retscan {

/// Parameters of the generated power-gating controller (the "proposed
/// power gating controller template" input of the Fig. 4 flow; its control
/// sequence is Fig. 3(b)).
struct PgControllerSpec {
  std::size_t chain_length = 0;  ///< l: cycles per encode/decode pass
  bool has_crc = true;           ///< emit sig_capture/sig_compare strobes
  bool can_correct = true;       ///< Hamming present: run a recheck pass
};

/// Nets produced by the controller for the surrounding system.
struct PgControllerPorts {
  NetId sleep = kNullNet;       ///< input: sleep request (level)
  NetId pswitch_en = kNullNet;  ///< output: header-switch enable
  NetId ctrl_active = kNullNet; ///< output: controller in Active state
  NetId ctrl_error = kNullNet;  ///< output: latched uncorrectable-error state
};

/// Generate the gate-level Fig. 3(b) controller as a one-hot FSM in the
/// always-on domain and bind its outputs onto pre-created control nets
/// (se/retain and the MonitorControls), which the monitors and scan flops
/// already read. The Active state is implicit (all one-hot flops zero), so
/// the simulator's all-zero reset starts the controller in Active.
///
/// Sequence: Active -> clear -> encode (l cycles) -> [capture] -> save ->
/// sleep -> wake (settle, 4 cycles) -> restore -> clear -> decode (l
/// cycles) -> [compare] -> check -> {Active | recheck decode | Error}.
///
/// `se_net`/`retain_net` and the nets inside `controls` must be existing
/// undriven nets; the controller claims them via bound buffer cells.
PgControllerPorts build_pg_controller(Netlist& netlist, const PgControllerSpec& spec,
                                      NetId error_flag, NetId se_net, NetId retain_net,
                                      const MonitorControls& controls);

}  // namespace retscan
