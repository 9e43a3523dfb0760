#include "core/protected_design.hpp"

#include "core/controller_gen.hpp"

#include "util/error.hpp"

namespace retscan {

ProtectedDesign::ProtectedDesign(Netlist base, const ProtectionConfig& config)
    : config_(config), netlist_(std::move(base)) {
  // Stage 1 of the reliability-aware synthesizer: scan insertion with
  // retention flops.
  ScanInsertionOptions scan_options;
  scan_options.chain_count = config_.chain_count;
  scan_options.style = ScanStyle::Retention;
  chains_ = insert_scan(netlist_, scan_options);

  // Stage 2: monitoring/correction logic generation. With a hardware
  // controller the control nets are placeholders the controller later
  // claims; otherwise they are external input ports driven by
  // RetentionSession (the testbench plays controller).
  if (config_.hardware_controller) {
    controls_.mon_en = netlist_.add_net("mon_en");
    controls_.mon_decode = netlist_.add_net("mon_decode");
    controls_.mon_clear = netlist_.add_net("mon_clear");
    controls_.sig_capture = netlist_.add_net("sig_capture");
    controls_.sig_compare = netlist_.add_net("sig_compare");
    // Take over the se/retain nets that scan insertion created as ports:
    // all existing readers are rewired onto controller-driven nets; the
    // original ports become unconnected (reported by lint as floating,
    // like the per-chain si ports).
    ctrl_se_net_ = netlist_.add_net("ctrl_se");
    ctrl_retain_net_ = netlist_.add_net("ctrl_retain");
    const CellId limit = static_cast<CellId>(netlist_.cell_count());
    netlist_.replace_readers(chains_.se, ctrl_se_net_, limit);
    netlist_.replace_readers(chains_.retain, ctrl_retain_net_, limit);
  } else {
    controls_.mon_en = netlist_.add_input("mon_en");
    controls_.mon_decode = netlist_.add_input("mon_decode");
    controls_.mon_clear = netlist_.add_input("mon_clear");
    controls_.sig_capture = netlist_.add_input("sig_capture");
    controls_.sig_compare = netlist_.add_input("sig_compare");
  }
  const NetId test_mode = netlist_.add_input("test_mode");

  first_monitor_cell_ = static_cast<CellId>(netlist_.cell_count());

  std::vector<NetId> feedback = chains_.so;
  std::vector<NetId> error_flags;
  if (config_.kind == CodeKind::HammingCorrect || config_.kind == CodeKind::HammingPlusCrc) {
    const MonitorBuildResult hamming = build_hamming_monitors(
        netlist_, chains_, config_.hamming(), controls_, config_.secded);
    feedback = hamming.feedback;
    error_flags.push_back(hamming.error_flag);
  }
  if (config_.kind == CodeKind::CrcDetect || config_.kind == CodeKind::HammingPlusCrc) {
    error_flags.push_back(build_crc_monitors(netlist_, chains_, controls_).error_flag);
  }
  RETSCAN_CHECK(!error_flags.empty(), "ProtectedDesign: no monitors configured");
  error_flag_net_ =
      error_flags.size() == 1 ? error_flags[0] : netlist_.n_or_tree(error_flags);
  netlist_.add_output("mon_err", error_flag_net_);

  // Stage 3: mode multiplexers + manufacturing-test concatenation.
  test_config_ = make_test_concatenation(config_.chain_count, config_.test_width);
  wire_scan_inputs(netlist_, chains_, feedback, test_config_, test_mode);

  // Stage 4 (optional): generate and hook up the gate-level controller.
  if (config_.hardware_controller) {
    PgControllerSpec spec;
    spec.chain_length = chains_.length();
    spec.has_crc = config_.kind != CodeKind::HammingCorrect;
    spec.can_correct = config_.kind != CodeKind::CrcDetect;
    const PgControllerPorts ports = build_pg_controller(
        netlist_, spec, error_flag_net_, ctrl_se_net_, ctrl_retain_net_, controls_);
    sleep_net_ = ports.sleep;
    pswitch_en_net_ = ports.pswitch_en;
    ctrl_active_net_ = ports.ctrl_active;
    ctrl_error_net_ = ports.ctrl_error;
  }
}

namespace {
AreaReport area_of_range(const Netlist& nl, const TechLibrary& tech, CellId begin,
                         CellId end) {
  AreaReport report;
  for (CellId id = begin; id < end; ++id) {
    const Cell& c = nl.cell(id);
    const double a = tech.physics(c.type).area_um2;
    report.total_um2 += a;
    if (cell_is_sequential(c.type)) {
      report.sequential_um2 += a;
      if (cell_is_flop(c.type)) {
        ++report.flop_count;
      }
    } else {
      report.combinational_um2 += a;
    }
    if (c.type != CellType::Input && c.type != CellType::Output) {
      ++report.cell_count;
    }
  }
  return report;
}
}  // namespace

AreaReport ProtectedDesign::base_area(const TechLibrary& tech) const {
  return area_of_range(netlist_, tech, 0, first_monitor_cell_);
}

AreaReport ProtectedDesign::monitor_area(const TechLibrary& tech) const {
  return area_of_range(netlist_, tech, first_monitor_cell_,
                       static_cast<CellId>(netlist_.cell_count()));
}

double ProtectedDesign::overhead_percent(const TechLibrary& tech) const {
  const double base = base_area(tech).total_um2;
  const double monitor = monitor_area(tech).total_um2;
  return base > 0 ? 100.0 * monitor / base : 0.0;
}

namespace {

// The Fig. 3(b) control sequences, shared by the scalar and packed session
// facades so the protocol exists in exactly one place. `drive` sets one
// control input to a boolean (broadcast across lanes on the packed facade).

template <typename Drive>
void seq_set_controls(const ProtectedDesign& design, const Drive& drive,
                      bool se, bool mon_en, bool mon_decode, bool test_mode) {
  drive(design.chains().se, se);
  drive(design.controls().mon_en, mon_en);
  drive(design.controls().mon_decode, mon_decode);
  drive(design.netlist().find_net("test_mode"), test_mode);
}

template <typename Sim, typename Drive>
void seq_pulse(Sim& sim, const Drive& drive, NetId net) {
  drive(net, true);
  sim.step();
  drive(net, false);
}

/// Encode: clear, circulate l cycles storing parity, capture CRC
/// signatures. Decode is the same circulation with mon_decode asserted and
/// a signature compare at the end.
template <typename Sim, typename Drive>
void seq_monitor_pass(Sim& sim, const ProtectedDesign& design, const Drive& drive,
                      bool decode) {
  seq_set_controls(design, drive, false, false, false, false);
  seq_pulse(sim, drive, design.controls().mon_clear);
  seq_set_controls(design, drive, true, true, decode, false);
  sim.step_n(design.chain_length());
  seq_set_controls(design, drive, false, false, false, false);
  if (design.config().kind != CodeKind::HammingCorrect) {
    seq_pulse(sim, drive,
              decode ? design.controls().sig_compare : design.controls().sig_capture);
  }
}

}  // namespace

RetentionSession::RetentionSession(const ProtectedDesign& design)
    : design_(&design),
      sim_(design.netlist()),
      fsm_(PgControllerFsm::Flavor::Proposed) {
  RETSCAN_CHECK(!design.config().hardware_controller,
                "RetentionSession: design has a hardware controller; use "
                "HardwareRetentionSession");
  set_controls(false, false, false, false);
  sim_.set_input(design_->controls().mon_clear, false);
  sim_.set_input(design_->controls().sig_capture, false);
  sim_.set_input(design_->controls().sig_compare, false);
  sim_.set_input(design_->chains().retain, false);
  sim_.eval();
}

void RetentionSession::set_controls(bool se, bool mon_en, bool mon_decode, bool test_mode) {
  seq_set_controls(*design_, [this](NetId n, bool v) { sim_.set_input(n, v); },
                   se, mon_en, mon_decode, test_mode);
}

void RetentionSession::encode() {
  fsm_.on_event(PgEvent::SleepRequest);
  seq_monitor_pass(sim_, *design_, [this](NetId n, bool v) { sim_.set_input(n, v); },
                   /*decode=*/false);
  fsm_.on_event(PgEvent::SequenceDone);  // Encoding -> SleepEntry
}

void RetentionSession::enter_sleep(Rng* garbage_rng) {
  set_controls(false, false, false, false);
  sim_.set_input(design_->chains().retain, true);
  sim_.step();  // save edge: balloon latches sample the masters
  sim_.power_off(kGatedDomain, garbage_rng);
  fsm_.on_event(PgEvent::SequenceDone);  // SleepEntry -> Sleep
}

void RetentionSession::corrupt(const std::vector<ErrorLocation>& upsets) {
  RETSCAN_CHECK(!sim_.domain_powered(kGatedDomain),
                "RetentionSession::corrupt: domain must be asleep");
  ErrorInjector::flip_retention(sim_, design_->chains(), upsets);
}

void RetentionSession::wake() {
  fsm_.on_event(PgEvent::WakeRequest);
  sim_.power_on(kGatedDomain);
  sim_.set_input(design_->chains().retain, false);
  sim_.step();  // restore edge: masters reload from the balloon latches
  fsm_.on_event(PgEvent::SequenceDone);  // WakeUp -> Decoding
}

bool RetentionSession::decode() {
  seq_monitor_pass(sim_, *design_, [this](NetId n, bool v) { sim_.set_input(n, v); },
                   /*decode=*/true);
  return error_flag();
}

bool RetentionSession::error_flag() const {
  return sim_.net_value(design_->error_flag_net_);
}

RetentionSession::CycleOutcome RetentionSession::sleep_wake_cycle(
    const std::vector<ErrorLocation>& upsets, Rng* garbage_rng) {
  CycleOutcome outcome;
  encode();
  enter_sleep(garbage_rng);
  corrupt(upsets);
  wake();
  outcome.errors_detected = decode();
  outcome.decode_passes = 1;
  if (!outcome.errors_detected) {
    fsm_.on_event(PgEvent::SequenceDone);  // clean decode -> Active
    outcome.recheck_clean = true;
    outcome.final_state = fsm_.state();
    return outcome;
  }
  fsm_.on_event(PgEvent::ErrorsDetected);  // Decoding -> Correcting
  const bool can_correct = design_->config().kind != CodeKind::CrcDetect;
  if (can_correct) {
    // Re-check pass: the first decode already spliced corrections into the
    // stream; a clean second pass proves the state was repaired.
    const bool still_dirty = decode();
    ++outcome.decode_passes;
    outcome.recheck_clean = !still_dirty;
    fsm_.on_event(still_dirty ? PgEvent::Uncorrectable : PgEvent::Corrected);
  } else {
    fsm_.on_event(PgEvent::Uncorrectable);
  }
  outcome.final_state = fsm_.state();
  return outcome;
}

ActivityReport RetentionSession::measure_encode(const TechLibrary& tech) {
  sim_.reset_activity();
  encode();
  return sim_.activity(tech);
}

ActivityReport RetentionSession::measure_decode(const TechLibrary& tech) {
  sim_.reset_activity();
  const bool had_errors = decode();
  (void)had_errors;
  return sim_.activity(tech);
}

PackedRetentionSession::PackedRetentionSession(const ProtectedDesign& design)
    : design_(&design), sim_(design.netlist()) {
  RETSCAN_CHECK(!design.config().hardware_controller,
                "PackedRetentionSession: design has a hardware controller; use "
                "HardwareRetentionSession");
  set_controls(false, false, false, false);
  sim_.set_input_all(design_->controls().mon_clear, false);
  sim_.set_input_all(design_->controls().sig_capture, false);
  sim_.set_input_all(design_->controls().sig_compare, false);
  sim_.set_input_all(design_->chains().retain, false);
  sim_.eval();
}

void PackedRetentionSession::set_controls(bool se, bool mon_en, bool mon_decode,
                                          bool test_mode) {
  seq_set_controls(*design_, [this](NetId n, bool v) { sim_.set_input_all(n, v); },
                   se, mon_en, mon_decode, test_mode);
}

void PackedRetentionSession::encode() {
  seq_monitor_pass(sim_, *design_, [this](NetId n, bool v) { sim_.set_input_all(n, v); },
                   /*decode=*/false);
}

void PackedRetentionSession::enter_sleep(Rng* garbage_rng) {
  set_controls(false, false, false, false);
  sim_.set_input_all(design_->chains().retain, true);
  sim_.step();  // save edge: balloon latches sample the masters
  sim_.power_off(kGatedDomain, garbage_rng);
}

void PackedRetentionSession::corrupt(
    const std::vector<std::vector<ErrorLocation>>& per_lane) {
  RETSCAN_CHECK(!sim_.domain_powered(kGatedDomain),
                "PackedRetentionSession::corrupt: domain must be asleep");
  ErrorInjector::flip_retention(sim_, design_->chains(), per_lane);
}

void PackedRetentionSession::wake() {
  sim_.power_on(kGatedDomain);
  sim_.set_input_all(design_->chains().retain, false);
  sim_.step();  // restore edge: masters reload from the balloon latches
}

LaneWord PackedRetentionSession::decode() {
  seq_monitor_pass(sim_, *design_, [this](NetId n, bool v) { sim_.set_input_all(n, v); },
                   /*decode=*/true);
  return error_flags();
}

LaneWord PackedRetentionSession::error_flags() const {
  return sim_.net_lanes(design_->error_flag_net_);
}

PackedRetentionSession::CycleOutcome PackedRetentionSession::sleep_wake_cycle(
    const std::vector<std::vector<ErrorLocation>>& per_lane, Rng* garbage_rng) {
  CycleOutcome outcome;
  encode();
  enter_sleep(garbage_rng);
  corrupt(per_lane);
  wake();
  outcome.errors_detected = decode();
  outcome.decode_passes = 1;
  const bool can_correct = design_->config().kind != CodeKind::CrcDetect;
  if (can_correct && outcome.errors_detected != 0) {
    // Re-check pass for every lane: the first decode already spliced
    // corrections into the stream, and a second pass over an already-clean
    // lane is clean by construction, so lanes that detected nothing are
    // unaffected while dirty lanes prove (or disprove) their repair.
    const LaneWord still_dirty = decode();
    ++outcome.decode_passes;
    outcome.recheck_clean = ~still_dirty;
  } else {
    // No repair happened: clean lanes pass, detected lanes stay dirty.
    outcome.recheck_clean = ~outcome.errors_detected;
  }
  return outcome;
}

HardwareRetentionSession::HardwareRetentionSession(const ProtectedDesign& design,
                                                   std::uint64_t garbage_seed)
    : design_(&design), sim_(design.netlist()), garbage_rng_(garbage_seed) {
  RETSCAN_CHECK(design.config().hardware_controller,
                "HardwareRetentionSession: design lacks a hardware controller");
  sim_.set_input(design_->sleep_net_, false);
  sim_.set_input(design_->netlist().find_net("test_mode"), false);
  sim_.eval();
}

void HardwareRetentionSession::set_sleep(bool value) {
  sim_.set_input(design_->sleep_net_, value);
}

void HardwareRetentionSession::step(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    sim_.step();
    // Power-switch fabric follower: the controller's pswitch_en output is
    // the gate of the header switches.
    const bool enable = sim_.net_value(design_->pswitch_en_net_);
    if (!enable && sim_.domain_powered(kGatedDomain)) {
      sim_.power_off(kGatedDomain, &garbage_rng_);
    } else if (enable && !sim_.domain_powered(kGatedDomain)) {
      sim_.power_on(kGatedDomain);
    }
  }
}

void HardwareRetentionSession::corrupt(const std::vector<ErrorLocation>& upsets) {
  RETSCAN_CHECK(asleep(), "HardwareRetentionSession::corrupt: domain must be asleep");
  ErrorInjector::flip_retention(sim_, design_->chains(), upsets);
}

HardwareRetentionSession::CycleOutcome HardwareRetentionSession::run_sleep_wake(
    const std::vector<ErrorLocation>& upsets, std::size_t max_cycles) {
  CycleOutcome outcome;
  set_sleep(true);
  while (!asleep() && outcome.cycles < max_cycles) {
    step();
    ++outcome.cycles;
  }
  if (!asleep()) {
    return outcome;  // never went down: report incomplete
  }
  corrupt(upsets);
  set_sleep(false);
  while (!active() && !error() && outcome.cycles < max_cycles) {
    step();
    ++outcome.cycles;
  }
  outcome.completed = active();
  outcome.error = error();
  return outcome;
}

}  // namespace retscan
