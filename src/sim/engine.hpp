#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/eval_kernel.hpp"
#include "sim/schedule.hpp"
#include "util/rng.hpp"

namespace retscan {

/// 64-lane bit-parallel two-phase simulation engine.
///
/// Combinational settling runs on the compiled simulation core
/// (sim/compiled_netlist.hpp): the netlist is lowered once into a flat
/// instruction stream with nets renumbered in evaluation order, shared via
/// Netlist::compiled() by every engine and fault frame on the same netlist,
/// so the hot loop never touches `Cell` objects.
///
/// This is the one implementation of the library's cycle semantics —
/// combinational settling, flop/latch capture, power-domain clamping, Rdff
/// balloon-latch save/restore on RETAIN edges. Two facades instantiate it:
///
///  * Simulator — the scalar API. Values are lane-replicated (0 or ~0) so
///    every lane computes the same circuit; activity is accounted on lane 0
///    only, preserving the original scalar toggle/energy numbers bit-exactly.
///  * PackedSim — the batch API. Each lane is an independent pattern/seed
///    slot, giving 64 simulations per gate operation for fault-simulation
///    and injection campaigns.
///
/// Power-gating semantics (shared verbatim by both facades):
///  * power_off(domain): master flip-flop state in the domain is lost
///    (garbage from the Rng, zeros if null); outputs of all cells in the
///    domain read 0 while off, modelling isolation clamps.
///  * Rdff retention flops: the always-on balloon latch samples the master
///    once, on the RETAIN rising edge; on the first powered clock with
///    RETAIN falling 1->0 the master restores from the latch; while RETAIN
///    is high the master holds (clock gated). RETAIN may stay asserted for
///    arbitrarily many cycles — including across multiple power cycles —
///    without re-sampling.
class SimEngine {
 public:
  /// `activity_lanes` selects which lanes contribute to toggle counts and
  /// clocked-edge accounting (the scalar facade passes lane 0 only so that
  /// replicated lanes are not multiply counted; PackedSim passes 0, which
  /// disables accounting and lets eval() run the plain-store sweep).
  SimEngine(const Netlist& netlist, LaneWord activity_lanes);

  const Netlist& netlist() const { return *netlist_; }

  /// Zero all state and inputs, power every domain on, settle.
  void reset();
  /// Combinational settle only (no clock edge).
  void eval();
  /// One full clock cycle: eval, capture, commit, settle.
  void step();

  // --- evaluation schedule -------------------------------------------------
  /// Select how settles run (see sim/schedule.hpp). Engines start on
  /// Sweep. Switching re-arms the Auto probe and forces one full resync
  /// sweep on the next settle; values are bit-identical under every mode.
  void set_schedule(Schedule schedule);
  /// Drain accumulated activity telemetry (counters reset to zero).
  ScheduleTelemetry take_schedule_telemetry();
  /// Mark the whole net state stale: the next settle runs as one full
  /// resync sweep and the Auto probe restarts. Pooled testbenches call this
  /// on construction AND on reseed so warm and fresh engines enter a shard
  /// in the identical schedule state — per-shard telemetry stays a pure
  /// function of the shard, never of workspace history (the kill/resume
  /// byte-identical contract depends on it).
  void invalidate_schedule_state();

  // --- lane-word state access --------------------------------------------
  // Net values live in a slot-indexed array (nets renumbered in evaluation
  // order by the compiled core, for hot-loop locality); the NetId accessors
  // translate at the API boundary.
  LaneWord net(NetId net) const { return net_values_[compiled_->slot(net)]; }
  void set_net(NetId net, LaneWord value) {
    const std::uint32_t s = compiled_->slot(net);
    if (!event_active()) {
      net_values_[s] = value;
      return;
    }
    // Event mode: sources seed the settle, so writes compare-and-list.
    // A store of the same value is a no-op either way, so this is exactly
    // the sweep-mode semantics.
    if (net_values_[s] != value) {
      net_values_[s] = value;
      dirty_slots_.push_back(s);
    }
  }
  std::size_t net_count() const { return net_values_.size(); }

  /// Primary-input net by port name; throws if absent.
  NetId input_net(const std::string& port_name) const;
  /// Throws unless `net` exists and is driven by an Input cell.
  void check_input_net(NetId net) const;

  LaneWord flop(CellId id) const { return flop_state_[id]; }
  /// Write a flop's master state, re-drive sequential outputs and settle the
  /// combinational logic — like power_off/power_on, the engine is fully
  /// consistent when this returns (the seed committed without re-eval(),
  /// leaving downstream nets stale until the next step()). Batch loaders
  /// should use set_flop_raw + commit_sequential_outputs + eval instead of
  /// paying one settle per flop.
  void set_flop(CellId id, LaneWord value);
  /// Write without recommitting outputs; callers batch-loading many flops
  /// must call commit_sequential_outputs() themselves.
  void set_flop_raw(CellId id, LaneWord value) { flop_state_[id] = value; }

  LaneWord retention(CellId id) const { return retention_state_[id]; }
  void set_retention(CellId id, LaneWord value) { retention_state_[id] = value; }
  void xor_retention(CellId id, LaneWord mask) { retention_state_[id] ^= mask; }

  /// Re-drive every sequential (and constant) output net from its committed
  /// state, applying domain clamps.
  void commit_sequential_outputs();

  // --- power domains ------------------------------------------------------
  /// Cut power in all lanes. Master state of sequential cells in the domain
  /// becomes garbage: per-lane random bits when `per_lane_garbage`, else one
  /// Bernoulli draw per cell replicated across lanes (the scalar contract,
  /// preserving the facade's Rng call sequence). Zeros when rng is null.
  void power_off(DomainId domain, Rng* rng, bool per_lane_garbage);
  void power_on(DomainId domain);
  bool domain_powered(DomainId domain) const;

  // --- precomputed structure ---------------------------------------------
  /// Flop cells (Dff/Sdff/Rdff) in netlist order, cached at construction.
  const std::vector<CellId>& flop_cells() const { return flop_cells_; }

  // --- activity accounting -------------------------------------------------
  void reset_activity();
  std::uint64_t steps() const { return steps_; }
  std::uint64_t clocked_cell_edges() const { return clocked_cell_edges_; }
  const std::vector<std::uint64_t>& toggles() const { return toggles_; }

 private:
  struct SeqCell {
    CellId id;
    CellType type;
    std::uint32_t out;  // output value slot
    DomainId domain;
    // Pin value slots (unused pins stay 0 and are never read for the type).
    std::uint32_t d = 0;
    std::uint32_t si = 0;
    std::uint32_t se = 0;
    std::uint32_t retain = 0;  // Rdff RETAIN or LatchL EN
  };

  void drive_slot(std::uint32_t slot, CellId cell, LaneWord value);

  // --- event-schedule internals -------------------------------------------
  /// True when the next settle should run the dirty-set settle (explicit
  /// Event, or Auto still probing / committed to the event path).
  bool event_active() const {
    return schedule_ == Schedule::Event ||
           (schedule_ == Schedule::Auto && auto_use_event_);
  }
  /// The unconditional compiled sweep (the PR 3 settle body).
  void full_sweep();
  /// Re-arm the Auto probe window (reset / schedule change).
  void rearm_auto_probe();

  const Netlist* netlist_;
  std::shared_ptr<const CompiledNetlist> compiled_;
  LaneWord activity_lanes_;

  // Structure precomputed once at construction: the per-cycle loops never
  // re-scan cell_count() or re-branch on non-sequential cells. The
  // combinational gates live in the compiled instruction stream.
  std::vector<SeqCell> seq_cells_;  // flops + latches in id order
  std::vector<std::pair<std::uint32_t, CellId>> const1_slots_;
  std::vector<CellId> flop_cells_;
  std::vector<std::vector<CellId>> domain_seq_cells_;  // seq cells per domain

  std::vector<LaneWord> net_values_;       // indexed by value slot
  std::vector<LaneWord> flop_state_;       // indexed by CellId
  std::vector<LaneWord> retention_state_;  // indexed by CellId (Rdff only)
  std::vector<LaneWord> prev_retain_;      // indexed by CellId (Rdff only)
  std::vector<LaneWord> domain_powered_;   // 0 or ~0 per domain
  bool all_powered_ = true;                // fast-path flag for eval()
  std::vector<LaneWord> next_state_;       // capture scratch, per seq cell
  std::vector<LaneWord> write_mask_;       // capture scratch, per seq cell
  std::unordered_map<std::string, NetId> input_by_name_;

  std::vector<std::uint64_t> toggles_;  // per cell output, masked lanes only
  std::uint64_t steps_ = 0;
  std::uint64_t clocked_cell_edges_ = 0;

  // --- event-schedule state ------------------------------------------------
  Schedule schedule_ = Schedule::Sweep;
  /// Slots changed since the last settle (the settle's seed). A slot may be
  /// listed twice: the settle marks each reader once.
  std::vector<std::uint32_t> dirty_slots_;
  /// propagate's bitmap over instruction indices, all zero between settles.
  std::vector<std::uint64_t> pending_;
  /// Settle budget: crossing it falls back to one full sweep.
  std::size_t event_budget_ = 0;
  /// Forces the next settle to be a full resync sweep — set whenever the
  /// dirty set cannot name everything stale (reset, power transitions,
  /// schedule switches).
  bool event_needs_full_ = true;
  // Auto probe: start on the event path, measure a window of settles, then
  // commit to Event or Sweep for the rest of the run (until reset()).
  static constexpr std::uint32_t kAutoProbeWindow = 64;
  bool auto_use_event_ = true;
  bool auto_locked_ = false;
  std::uint32_t auto_probe_left_ = kAutoProbeWindow;
  std::uint64_t auto_event_instrs_ = 0;
  std::uint64_t auto_capacity_ = 0;
  std::uint64_t auto_fallbacks_ = 0;
  ScheduleTelemetry telemetry_;
};

}  // namespace retscan
