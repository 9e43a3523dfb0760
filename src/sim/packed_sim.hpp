#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/engine.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace retscan {

/// 64-way bit-parallel batch simulator — the wide facade of SimEngine.
///
/// Each of the 64 lanes is an independent pattern/seed slot: lane b of every
/// net and state word carries simulation b's value, so one step() advances 64
/// simulations for the cost of (roughly) one. Inputs may be driven per lane
/// (one LaneWord = 64 independent stimulus bits) or broadcast; fault-free and
/// corrupted trials co-exist in different lanes of the same run. The cycle
/// and power-gating semantics are the engine's — identical, by construction
/// and by test, to the scalar Simulator's (lane 0 of a PackedSim run with
/// replicated stimulus matches Simulator bit-exactly).
///
/// This is the workhorse behind parallel-pattern scan tests
/// (atpg/scan_test), batched injection campaigns (testbench/harness) and any
/// future statistical workload that needs paper-scale sequence counts.
class PackedSim {
 public:
  explicit PackedSim(const Netlist& netlist);

  const Netlist& netlist() const { return engine_.netlist(); }
  static constexpr std::size_t lane_count() { return kLaneCount; }

  // --- stimulus -----------------------------------------------------------
  /// Drive a primary input with one bit per lane.
  void set_input(const std::string& port_name, LaneWord lanes);
  void set_input(NetId net, LaneWord lanes);
  /// Broadcast one value to every lane of a primary input.
  void set_input_all(const std::string& port_name, bool value);
  void set_input_all(NetId net, bool value);
  // A bool would silently convert to LaneWord 1 and drive lane 0 only; force
  // callers to pick a lane word or the explicit broadcast.
  void set_input(const std::string& port_name, bool value) = delete;
  void set_input(NetId net, bool value) = delete;

  /// Zero all state and inputs in every lane; powers all domains on.
  void reset();
  /// Combinational settle only (no clock edge).
  void eval();
  /// One full clock cycle in all 64 lanes.
  void step();
  void step_n(std::size_t count);

  // --- observation --------------------------------------------------------
  LaneWord net_lanes(NetId net) const;
  bool net_value(NetId net, std::size_t lane) const;

  LaneWord flop_lanes(CellId flop) const;
  /// Write a flop's master state (all lanes) WITHOUT re-driving outputs;
  /// call refresh() after a batch of writes.
  void set_flop_lanes(CellId flop, LaneWord lanes);
  /// States of all flops in netlist.flops() order, one BitVec per lane slot.
  BitVec flop_states(std::size_t lane) const;
  /// Load per-lane flop states (rows indexed by lane, each in
  /// netlist.flops() order; missing lanes keep their current state), then
  /// refresh().
  void set_flop_states(const std::vector<BitVec>& rows);

  /// Flip the balloon latch of `flop` in the lanes selected by `lane_mask`.
  void flip_retention(CellId flop, LaneWord lane_mask);

  /// Re-drive sequential outputs and settle after direct state writes.
  void refresh();

  // --- power domains ------------------------------------------------------
  /// Cut power in every lane; master state becomes independent per-lane
  /// garbage from `rng` (zeros if null).
  void power_off(DomainId domain, Rng* rng = nullptr);
  void power_on(DomainId domain);
  bool domain_powered(DomainId domain) const;

  /// Flop cells (netlist.flops() order), precomputed.
  const std::vector<CellId>& flop_cells() const { return engine_.flop_cells(); }

  // --- evaluation schedule ------------------------------------------------
  /// Settle scheduling (sweep vs dirty-net worklist, see sim/schedule.hpp);
  /// all lanes of every net are bit-identical under every mode.
  void set_schedule(Schedule schedule) { engine_.set_schedule(schedule); }
  Schedule schedule() const { return engine_.schedule(); }
  ScheduleTelemetry take_schedule_telemetry() { return engine_.take_schedule_telemetry(); }
  void invalidate_schedule_state() { engine_.invalidate_schedule_state(); }

 private:
  SimEngine engine_;
};

}  // namespace retscan
