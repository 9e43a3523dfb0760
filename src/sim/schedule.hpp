#pragma once

#include <cstdint>

namespace retscan {

/// How an engine settles the combinational logic between state changes.
///
///  * Sweep — every settle evaluates the full compiled instruction stream
///    (the PR 3 kernel). Cost is O(circuit) per settle regardless of how
///    little changed; still the fastest choice for high-activity phases
///    (scan circulation toggles every chain flop every cycle).
///  * Event — dirty-set settle (CompiledNetlist::propagate): settles seed
///    from the source slots that actually changed since the last settle
///    and scan the marked instructions in ascending order through the
///    readers CSR, evaluating only instructions whose inputs changed. When
///    the scan enters a level whose marked set would take it past the
///    activity budget, the settle falls back to one full sweep.
///    Bit-identical to Sweep by construction (and by test) — instructions
///    are pure functions of their inputs, so skipping one whose inputs did
///    not change cannot alter any value.
///  * Auto — start on the event path and measure: after a short probe
///    window the engine commits to Event or Sweep for the rest of its run,
///    based on the observed dirty fraction and fallback rate. Pooled
///    structural validation campaigns run their engines on Auto;
///    forcing Event or Sweep is an engine-level control
///    (SimEngine::set_schedule, ValidationConfig::schedule).
enum class Schedule : std::uint8_t {
  Auto,
  Sweep,
  Event,
};

/// The spelling `CampaignResult::schedule` is reported with (the result
/// block's `schedule:` line and the serve summary).
inline const char* to_string(Schedule schedule) {
  switch (schedule) {
    case Schedule::Auto:  return "auto";
    case Schedule::Sweep: return "sweep";
    case Schedule::Event: return "event";
  }
  return "?";
}

/// Activity telemetry accumulated by a SimEngine across its settles and
/// drained with take_schedule_telemetry(). Counters are pure sums, so
/// per-shard telemetry merges in shard order exactly like ValidationStats
/// (but lives outside it: telemetry describes the execution, not the
/// campaign outcome, and must not participate in the bit-identical
/// statistics contract).
struct ScheduleTelemetry {
  /// Settles completed by the dirty-set settle alone.
  std::uint64_t event_sweeps = 0;
  /// Settles evaluated by a full instruction sweep (Sweep/Auto-sweep mode,
  /// forced resyncs after power/reset events, and threshold fallbacks).
  std::uint64_t full_sweeps = 0;
  /// Subset of full_sweeps that started as a dirty-set settle and stopped
  /// at the activity budget.
  std::uint64_t full_sweep_fallbacks = 0;
  /// Instructions evaluated by dirty-set settles (including the partial
  /// work of settles that later fell back).
  std::uint64_t event_instrs = 0;
  /// Instructions evaluated by full sweeps.
  std::uint64_t sweep_instrs = 0;
  /// Instruction-stream size summed over every settle — the denominator
  /// that turns the two instruction counters into a dirty fraction.
  std::uint64_t instr_capacity = 0;

  std::uint64_t settles() const { return event_sweeps + full_sweeps; }

  /// Average fraction of the compiled instruction stream evaluated per
  /// settle: 1.0 in pure Sweep mode, near the circuit's true activity on
  /// the event path (fallback settles count their wasted partial work on
  /// top of the full sweep, so they can push a settle above 1).
  double avg_dirty_fraction() const {
    if (instr_capacity == 0) {
      return 0.0;
    }
    return static_cast<double>(event_instrs + sweep_instrs) /
           static_cast<double>(instr_capacity);
  }

  /// Field-wise equality — what the kill/resume equivalence tests assert:
  /// a resumed campaign's merged telemetry must match the uninterrupted
  /// run's bit for bit, not just its statistics.
  bool operator==(const ScheduleTelemetry&) const = default;

  ScheduleTelemetry& operator+=(const ScheduleTelemetry& other) {
    event_sweeps += other.event_sweeps;
    full_sweeps += other.full_sweeps;
    full_sweep_fallbacks += other.full_sweep_fallbacks;
    event_instrs += other.event_instrs;
    sweep_instrs += other.sweep_instrs;
    instr_capacity += other.instr_capacity;
    return *this;
  }
};

}  // namespace retscan
