#pragma once

/// retscan public surface — manufacturing-test layer.
///
/// Stuck-at fault enumeration/collapsing, the combinational scan frame with
/// its incremental (fanout-free-region) fault simulator, two-phase ATPG
/// (random + PODEM), and the scan-delivery checkers. Patterns stay in
/// memory: AtpgResult::patterns feeds the deliveries directly.
///
/// Deliveries normally go through Session::run_scan_test
/// (retscan/session.hpp), which picks the scalar reference or the 64-lane
/// packed delivery; deliver_scan_test / deliver_scan_test_packed drive any
/// ScanPorts map directly, e.g. the full-width si ports of a plain scanned
/// netlist.

#include "atpg/atpg.hpp"       // AtpgOptions, AtpgResult, run_atpg
#include "atpg/fault.hpp"      // Fault, enumerate_faults, collapse_faults
#include "atpg/fault_sim.hpp"  // CombinationalFrame, fault_simulate
#include "atpg/podem.hpp"      // Podem, PodemResult
#include "atpg/scan_test.hpp"  // ScanPorts, deliver_scan_test[_packed]
