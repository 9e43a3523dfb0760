#pragma once

#include <string_view>
#include <vector>

namespace retscan {

/// States of the power-gating control sequence. The conventional flow
/// (Fig. 3(a)) uses Active/SleepEntry/Sleep/WakeUp; the proposed flow
/// (Fig. 3(b)) adds Encoding before sleep entry and Decoding (with a
/// possible Correcting excursion) after wake-up.
enum class PgState {
  Active,
  Encoding,    // proposed only: monitor generates & stores parity
  SleepEntry,  // RETAIN asserted, states saved, switches turning off
  Sleep,
  WakeUp,      // switches turning on, waiting for rail to settle, restore
  Decoding,    // proposed only: monitor re-checks parity
  Correcting,  // proposed only: corrector fixing flagged bits
  ErrorFlagged,// proposed only: uncorrectable error reported upward
};

/// Inputs that advance the FSM.
enum class PgEvent {
  SleepRequest,   // 'sleep' goes 1
  WakeRequest,    // 'sleep' goes 0
  SequenceDone,   // current sequence (encode/save/wake/decode) finished
  ErrorsDetected, // decode found at least one syndrome/mismatch
  Corrected,      // corrector finished and recheck is clean
  Uncorrectable,  // detection-only code, or recheck still dirty
};

std::string_view pg_state_name(PgState state);

/// Pure transition logic of the two controller variants. Keeping the FSM
/// free of simulator dependencies lets the tests enumerate the transition
/// relation exhaustively; the orchestration that actually drives a design
/// through a sleep/wake cycle lives in core/ProtectedDesign.
class PgControllerFsm {
 public:
  enum class Flavor { Conventional, Proposed };

  explicit PgControllerFsm(Flavor flavor) : flavor_(flavor) {}

  PgState state() const { return state_; }
  const std::vector<PgState>& history() const { return history_; }

  /// Apply an event; returns the new state. Illegal events for the current
  /// state are ignored (level-sensitive controls), matching hardware that
  /// samples 'sleep' only in Active/Sleep.
  PgState on_event(PgEvent event);

  void reset();

 private:
  Flavor flavor_;
  PgState state_ = PgState::Active;
  std::vector<PgState> history_{PgState::Active};
};

}  // namespace retscan
