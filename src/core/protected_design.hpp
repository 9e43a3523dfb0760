#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "coding/hamming.hpp"
#include "core/monitor_gen.hpp"
#include "inject/injector.hpp"
#include "netlist/netlist.hpp"
#include "netlist/techlib.hpp"
#include "power/pg_fsm.hpp"
#include "scan/scan_insert.hpp"
#include "sim/packed_sim.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace retscan {

/// Which coding scheme the state-monitoring blocks implement.
enum class CodeKind {
  CrcDetect,       ///< CRC-16 detection only (software recovery assumed)
  HammingCorrect,  ///< Hamming(n,k) detection + hardware correction
  HammingPlusCrc,  ///< both, as in the paper's FPGA validation (Section IV)
};

/// Configuration of a reliable state-retention power-gated design.
struct ProtectionConfig {
  CodeKind kind = CodeKind::HammingCorrect;
  /// Hamming parity bit count r: 3 -> (7,4) ... 6 -> (63,57).
  unsigned hamming_r = 3;
  /// Extend the Hamming monitors to SEC-DED: one extra stored parity bit
  /// per word; double errors are flagged instead of miscorrected.
  bool secded = false;
  /// Number of scan chains W (Tables I-III sweep this). Flops fill the
  /// chains in blocks, and the CRC monitor is one CCITT CRC-16 block
  /// absorbing all W chains per cycle — the only geometry consistent with
  /// the paper's Table I overheads (2.8%..9.2%).
  std::size_t chain_count = 4;
  /// Manufacturing-test I/O width T for the Fig. 5(b) concatenation.
  std::size_t test_width = 4;
  /// Generate the Fig. 3(b) controller as gates inside the design. The
  /// control nets (se/retain/mon_*) are then driven by the controller's
  /// FSM instead of external input ports, and the design is operated
  /// through HardwareRetentionSession via a single `sleep` input. Its
  /// wake-up settle wait is a fixed 4 cycles.
  bool hardware_controller = false;

  HammingCode hamming() const { return HammingCode(hamming_r); }
};

/// A power-gated design wrapped with the paper's protection architecture:
/// retention scan chains, state-monitoring blocks, error-correction blocks,
/// mode multiplexers and the manufacturing-test concatenation. Construction
/// performs the structural work of the reliability-aware synthesizer's
/// middle stages (Fig. 4); cost accounting distinguishes the original
/// design (gated domain) from the always-on monitoring logic.
class ProtectedDesign {
 public:
  ProtectedDesign(Netlist base, const ProtectionConfig& config);

  const Netlist& netlist() const { return netlist_; }
  const ProtectionConfig& config() const { return config_; }
  const ScanChains& chains() const { return chains_; }
  const TestModeConfig& test_config() const { return test_config_; }
  const MonitorControls& controls() const { return controls_; }
  std::size_t chain_length() const { return chains_.length(); }
  std::size_t flop_count() const { return chains_.flop_count(); }

  /// Area of the original design + scan conversion (everything before the
  /// monitor cells).
  AreaReport base_area(const TechLibrary& tech) const;
  /// Area of the generated monitoring/correction/mux logic.
  AreaReport monitor_area(const TechLibrary& tech) const;
  /// Monitor overhead relative to the base design, in percent — the "%"
  /// column of Tables I-III.
  double overhead_percent(const TechLibrary& tech) const;

 private:
  ProtectionConfig config_;
  Netlist netlist_;
  ScanChains chains_;
  TestModeConfig test_config_;
  MonitorControls controls_;
  CellId first_monitor_cell_ = kNullCell;
  NetId error_flag_net_ = kNullNet;
  NetId ctrl_se_net_ = kNullNet;
  NetId ctrl_retain_net_ = kNullNet;
  NetId sleep_net_ = kNullNet;
  NetId pswitch_en_net_ = kNullNet;
  NetId ctrl_active_net_ = kNullNet;
  NetId ctrl_error_net_ = kNullNet;

  friend class RetentionSession;
  friend class HardwareRetentionSession;
  friend class PackedRetentionSession;
};

/// Drives a simulated ProtectedDesign through the proposed power-gating
/// control sequence (Fig. 3(b)): encode -> sleep -> (corruption) -> wake ->
/// decode/correct, tracking the controller FSM. The power-gated circuit
/// must be functionally idle (inputs quiescent) while sequences run — the
/// standard precondition for entering sleep.
class RetentionSession {
 public:
  explicit RetentionSession(const ProtectedDesign& design);

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  const PgControllerFsm& fsm() const { return fsm_; }
  /// Start a fresh sleep episode (controller back to Active).
  void reset_fsm() { fsm_.reset(); }

  /// Encode sequence: clear, circulate l cycles storing parity, capture
  /// CRC signatures.
  void encode();

  /// Sleep entry: assert RETAIN, one save edge, switches off. Master state
  /// garbage is drawn from `garbage_rng` (zeros if null).
  void enter_sleep(Rng* garbage_rng = nullptr);

  /// Flip retention latches while asleep (rush-current upsets).
  void corrupt(const std::vector<ErrorLocation>& upsets);

  /// Wake: switches on, RETAIN released, state restored from latches.
  void wake();

  /// Decode sequence: clear, circulate l cycles checking (and, for Hamming,
  /// correcting) the state, compare CRC signatures. Returns the sticky
  /// error flag.
  bool decode();

  bool error_flag() const;

  /// Full protected sleep/wake cycle. For Hamming configurations a dirty
  /// decode triggers one re-check pass (the Correcting state); the cycle
  /// ends in Active if the recheck is clean, ErrorFlagged otherwise.
  struct CycleOutcome {
    bool errors_detected = false;
    bool recheck_clean = false;
    std::size_t decode_passes = 0;
    PgState final_state = PgState::Active;
  };
  CycleOutcome sleep_wake_cycle(const std::vector<ErrorLocation>& upsets,
                                Rng* garbage_rng = nullptr);

  /// Encode/decode cost measurement: runs the sequence with activity
  /// accounting and returns the report (includes the controller's clear /
  /// capture strobes; the coding latency proper is chain_length cycles).
  ActivityReport measure_encode(const TechLibrary& tech);
  ActivityReport measure_decode(const TechLibrary& tech);

 private:
  void set_controls(bool se, bool mon_en, bool mon_decode, bool test_mode);

  const ProtectedDesign* design_;
  Simulator sim_;
  PgControllerFsm fsm_;
};

/// 64-lane batch variant of RetentionSession: drives one PackedSim through
/// the same Fig. 3(b) control sequence, with every lane carrying an
/// independent corruption trial. Control inputs are broadcast (the
/// controller sequence does not depend on the injected errors); corruption,
/// power-off garbage and the monitor error flags are per lane, so one
/// sleep/wake episode evaluates 64 injection campaigns at once.
class PackedRetentionSession {
 public:
  explicit PackedRetentionSession(const ProtectedDesign& design);

  PackedSim& sim() { return sim_; }
  const PackedSim& sim() const { return sim_; }

  /// Encode sequence: clear, circulate l cycles storing parity, capture
  /// CRC signatures (all lanes in lockstep).
  void encode();
  /// Sleep entry: assert RETAIN, one save edge, switches off. Master
  /// garbage is independent per lane.
  void enter_sleep(Rng* garbage_rng = nullptr);
  /// Flip retention latches while asleep; per_lane[b] applies to lane b.
  void corrupt(const std::vector<std::vector<ErrorLocation>>& per_lane);
  /// Wake: switches on, RETAIN released, state restored from latches.
  void wake();
  /// Decode sequence; returns the per-lane sticky error flags.
  LaneWord decode();

  LaneWord error_flags() const;

  /// Per-lane outcome of a full sleep/wake cycle. recheck_clean mirrors the
  /// scalar FSM: lanes with a clean first decode are clean; for correctable
  /// configurations a re-check pass decides the rest; detection-only
  /// configurations never repair, so detected lanes stay dirty. A lane is
  /// ErrorFlagged (uncorrectable) iff detected and not recheck-clean.
  struct CycleOutcome {
    LaneWord errors_detected = 0;
    LaneWord recheck_clean = 0;
    std::size_t decode_passes = 0;
  };
  CycleOutcome sleep_wake_cycle(const std::vector<std::vector<ErrorLocation>>& per_lane,
                                Rng* garbage_rng = nullptr);

 private:
  void set_controls(bool se, bool mon_en, bool mon_decode, bool test_mode);

  const ProtectedDesign* design_;
  PackedSim sim_;
};

/// Drives a ProtectedDesign built with `hardware_controller = true`: the
/// entire Fig. 3(b) sequence runs in the generated gate-level FSM, and this
/// session only toggles the `sleep` request and emulates the power switch
/// fabric (observing the controller's pswitch_en output each cycle, cutting
/// or restoring the gated domain accordingly — the one physical effect a
/// logic simulator cannot produce by itself).
class HardwareRetentionSession {
 public:
  explicit HardwareRetentionSession(const ProtectedDesign& design,
                                    std::uint64_t garbage_seed = 1);

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }

  void set_sleep(bool value);
  /// One clock cycle + power-switch follower.
  void step(std::size_t count = 1);

  bool active() const { return sim_.net_value(design_->ctrl_active_net_); }
  bool error() const { return sim_.net_value(design_->ctrl_error_net_); }
  bool asleep() const { return !sim_.net_value(design_->pswitch_en_net_); }

  /// Flip retention latches; only legal while the domain is off.
  void corrupt(const std::vector<ErrorLocation>& upsets);

  struct CycleOutcome {
    bool completed = false;  ///< returned to Active
    bool error = false;      ///< latched in the Error state
    std::size_t cycles = 0;  ///< total clock cycles spent
  };
  /// Full autonomous sleep/wake episode: raise sleep, wait for the domain
  /// to go down, inject `upsets`, drop sleep, run until the controller
  /// lands in Active or Error.
  CycleOutcome run_sleep_wake(const std::vector<ErrorLocation>& upsets,
                              std::size_t max_cycles = 100000);

 private:
  const ProtectedDesign* design_;
  Simulator sim_;
  Rng garbage_rng_;
};

}  // namespace retscan
