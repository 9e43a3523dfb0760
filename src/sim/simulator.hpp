#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/techlib.hpp"
#include "sim/engine.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace retscan {

/// Dynamic-activity summary accumulated by the simulator between calls to
/// reset_activity(). Energy is computed against a TechLibrary: every output
/// toggle costs the cell's switching energy, and every clock edge costs each
/// powered sequential cell a fraction of its switching energy (clock pin and
/// internal clock buffering), which is what makes scan-shift power dominated
/// by the chain flops — the effect behind the paper's observation that
/// Hamming and CRC monitors differ by only 20-40% in power.
struct ActivityReport {
  std::uint64_t steps = 0;
  std::uint64_t output_toggles = 0;
  double dynamic_energy_pj = 0.0;
  /// Average power in mW given the number of steps and a clock period (ns).
  /// Returns 0 for an empty report or a non-positive clock period.
  double average_power_mw(double clock_period_ns) const;
};

/// Two-phase cycle-accurate simulator for a Netlist — the scalar facade of
/// the bit-parallel SimEngine (see sim/engine.hpp, where the cycle and
/// power-gating semantics are implemented once and shared with PackedSim).
/// Values are lane-replicated so every engine lane computes the same
/// circuit; activity is accounted on lane 0 only, keeping toggle and energy
/// numbers identical to a one-value-per-net simulator.
///
/// Each step(): (1) combinational cells evaluate in levelized order from the
/// current sequential states and primary inputs, (2) sequential cells capture
/// their next state, (3) states commit. Latches (LatchL) update at the step
/// boundary like enabled flops; this keeps evaluation acyclic and is
/// documented behaviour for the parity-storage elements.
///
/// Power gating semantics (the physical mechanism the paper protects
/// against):
///  * power_off(domain): master flip-flop state in that domain is lost —
///    replaced with garbage from the supplied Rng (or zeros if none). While a
///    domain is off, outputs of all its cells read 0, modelling isolation
///    clamps at the domain boundary.
///  * Rdff retention flip-flops (Fig. 1): the slave balloon latch is
///    always-on. It samples the master once, on the RETAIN rising edge (the
///    save event); on the first powered clock edge with RETAIN falling 1->0
///    the master is restored from the latch. RETAIN may stay asserted for
///    arbitrarily many cycles in between (sleep + wake settling). Corruption of retention latches by wake-up
///    rush current is injected by the power model (src/power) via
///    set_retention_state()/flip_retention().
class Simulator {
 public:
  explicit Simulator(const Netlist& netlist);

  const Netlist& netlist() const { return engine_.netlist(); }

  // --- stimulus -----------------------------------------------------------
  void set_input(const std::string& port_name, bool value);
  void set_input(NetId net, bool value);

  /// Zero all flip-flops, latches and inputs; powers all domains on.
  void reset();

  /// Combinational settle only (no clock edge). Mostly for tests.
  void eval();

  /// One full clock cycle: eval, capture, commit.
  void step();
  /// Convenience: `count` clock cycles.
  void step_n(std::size_t count);

  // --- observation ----------------------------------------------------------
  bool net_value(NetId net) const;
  bool output(const std::string& port_name) const;

  bool flop_state(CellId flop) const;
  /// Write one flop's state and settle — like power_off/power_on, all
  /// combinational nets are consistent when this returns. Writing many flops
  /// one by one pays one settle each; use a batch setter instead.
  void set_flop_state(CellId flop, bool value);
  /// States of all Dff/Sdff/Rdff cells in netlist.flops() order.
  BitVec flop_states() const;
  void set_flop_states(const BitVec& states);
  /// Batch-write a subset of flops (one commit + settle for the whole set).
  void set_flop_states(const std::vector<std::pair<CellId, bool>>& updates);

  /// Retention (balloon) latch content of an Rdff.
  bool retention_state(CellId flop) const;
  void set_retention_state(CellId flop, bool value);
  void flip_retention(CellId flop);

  // --- power domains --------------------------------------------------------
  /// Cut power: master state in `domain` is destroyed (randomized via rng,
  /// zeroed if rng == nullptr); outputs clamp to 0 until power_on.
  void power_off(DomainId domain, Rng* rng = nullptr);
  void power_on(DomainId domain);
  bool domain_powered(DomainId domain) const;

  // --- activity / power ------------------------------------------------------
  void reset_activity();
  /// Report accumulated since the last reset_activity().
  ActivityReport activity(const TechLibrary& tech) const;

  // --- evaluation schedule --------------------------------------------------
  /// Settle scheduling (sweep vs dirty-set settle, see sim/schedule.hpp);
  /// values, toggle counts and energy are bit-identical under every mode.
  void set_schedule(Schedule schedule) { engine_.set_schedule(schedule); }
  ScheduleTelemetry take_schedule_telemetry() { return engine_.take_schedule_telemetry(); }
  void invalidate_schedule_state() { engine_.invalidate_schedule_state(); }

 private:
  SimEngine engine_;

  /// Fraction of a sequential cell's switching energy charged per clock edge
  /// even when its output does not toggle (clock pin + internal buffers).
  static constexpr double kClockPinEnergyFraction = 0.4;
};

}  // namespace retscan
