#pragma once

#include <cstddef>
#include <vector>

#include "coding/hamming.hpp"
#include "netlist/netlist.hpp"
#include "scan/scan_insert.hpp"

namespace retscan {

/// Control nets shared by every generated monitor block. These are the
/// inputs the (proposed) power-gating controller drives; see Fig. 2/3(b).
struct MonitorControls {
  NetId mon_en = kNullNet;      ///< monitoring pass in progress (shift/absorb)
  NetId mon_decode = kNullNet;  ///< 0 = encode pass, 1 = decode pass
  NetId mon_clear = kNullNet;   ///< sync clear of CRC registers + sticky error
  NetId sig_capture = kNullNet; ///< CRC: latch signature at end of encode
  NetId sig_compare = kNullNet; ///< CRC: compare & record mismatch after decode
};

/// Result of structural monitor generation.
struct MonitorBuildResult {
  /// Per chain: the (possibly corrected) scan-out bit that should feed the
  /// chain's scan-in during circulation. For detection-only monitors this
  /// is simply the chain's scan-out net.
  std::vector<NetId> feedback;
  /// Sticky error flag net (registered, cleared by mon_clear).
  NetId error_flag = kNullNet;
  /// First cell id of the generated logic — everything from here on is
  /// always-on monitor area, used for the overhead columns of Tables I-III.
  CellId first_monitor_cell = kNullCell;
};

/// Generate gate-level Hamming(n,k) state-monitoring and error-correction
/// blocks (Fig. 2) for the given chains. Chains are grouped k at a time;
/// each group gets: r parity XOR trees, an l-deep r-wide always-on parity
/// shift memory with encode/recirculate muxing, a syndrome comparator, a
/// k-way syndrome decoder, and XOR correctors splicing fixes into the
/// feedback stream during decode. All generated cells live in the always-on
/// domain.
/// `extended` adds SEC-DED operation: one extra overall-parity XOR tree
/// and memory column per group, with correction gated on the overall
/// mismatch so double errors are flagged instead of miscorrected.
MonitorBuildResult build_hamming_monitors(Netlist& netlist, const ScanChains& chains,
                                          const HammingCode& code,
                                          const MonitorControls& controls,
                                          bool extended = false);

/// Generate the gate-level CRC-16 detection monitor: one CCITT CRC-16
/// register absorbing every chain's scan-out per cycle (the W-bit parallel
/// next-state XOR network is derived symbolically from the serial LFSR), a
/// 16-bit signature register captured at the end of the encode pass, and a
/// comparator feeding the sticky error flag. Detection only: feedback is
/// the raw scan-out.
MonitorBuildResult build_crc_monitors(Netlist& netlist, const ScanChains& chains,
                                      const MonitorControls& controls);

/// Wire the scan-in of every chain through the mode multiplexers of Fig. 2 /
/// Fig. 5(b): in monitoring modes the chain consumes `feedback[c]`; in test
/// mode (test_mode net high) chains concatenate per `test_config`, with
/// external ports `tsi{g}` / `tso{g}` created for each test group. Replaces
/// the SI wiring made by insert_scan.
void wire_scan_inputs(Netlist& netlist, const ScanChains& chains,
                      const std::vector<NetId>& feedback,
                      const TestModeConfig& test_config, NetId test_mode);

}  // namespace retscan
