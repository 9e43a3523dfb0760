#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "sim/compiled_netlist.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace retscan {

/// Outcome of one PODEM run for a single fault.
struct PodemResult {
  bool success = false;
  /// Exhausted the decision space: the fault is provably untestable in the
  /// combinational frame (redundant logic).
  bool untestable = false;
  /// Exceeded the backtrack budget (status unknown).
  bool aborted = false;
  BitVec pattern;  ///< valid when success
  std::size_t backtracks = 0;
};

/// Path-Oriented DEcision Making test generator (Goel 1981) over the
/// combinational frame's compiled core. The good and faulty machines are
/// simulated together in {0,1,X} on the frame's value slots; a D (good=1,
/// faulty=0) or D' at any primary or pseudo-primary output means the pattern
/// detects the fault. Decisions are made only at (pseudo-)primary inputs,
/// with objective/backtrace steering and chronological backtracking.
///
/// Sources follow the frame's loader: a Const1 output is 1, every other
/// source that is not a PI or PPI (Const0, latch outputs) is 0, and the
/// fault is forced at its site whatever drives it. The constructor settles
/// the decision-free frame once, with the constraints applied and no fault;
/// each generate() call starts from a copy of it, forces the fault site and
/// re-evaluates what the site reaches. After that a decision or a backtrack
/// re-evaluates only what its changed inputs reach, in one ascending scan
/// (CompiledNetlist::propagate). A D exists only at the fault site and in
/// its fanout cone, so the D-frontier and the detection test are kept as
/// values change: every write updates a count of D operands per
/// instruction and a count of observation points holding a D. No call
/// builds or walks the fault's cone, and one Podem serves any number of
/// targets, one at a time.
class Podem {
 public:
  Podem(const CombinationalFrame& frame, std::size_t max_backtracks = 500);

  PodemResult generate(const Fault& fault, Rng& rng);

 private:
  static constexpr std::uint8_t kX = 2;

  /// Both machines' values of one slot in two-rail form: bit 0 of `zero`
  /// and `one` is the good machine, bit 1 the faulty one; X sets neither.
  /// The operators are the three-valued gates, so CompiledNetlist's one
  /// instruction kernel evaluates both machines at once.
  struct Dual {
    std::uint8_t zero = 0;
    std::uint8_t one = 0;

    /// Both machines at `value` (0, 1 or kX).
    static Dual of(std::uint8_t value) {
      return {static_cast<std::uint8_t>(value == 0 ? 3 : 0),
              static_cast<std::uint8_t>(value == 1 ? 3 : 0)};
    }
    /// The machines holding a definite value: bit 0 good, bit 1 faulty.
    std::uint8_t known() const { return zero | one; }
    /// A D or D': both machines definite and different.
    bool is_d() const { return ((zero & (one >> 1)) | (one & (zero >> 1))) & 1; }

    friend bool operator==(Dual, Dual) = default;
    friend Dual operator~(Dual a) { return {a.one, a.zero}; }
    friend Dual operator&(Dual a, Dual b) {
      return {static_cast<std::uint8_t>(a.zero | b.zero),
              static_cast<std::uint8_t>(a.one & b.one)};
    }
    friend Dual operator|(Dual a, Dual b) {
      return {static_cast<std::uint8_t>(a.zero & b.zero),
              static_cast<std::uint8_t>(a.one | b.one)};
    }
    friend Dual operator^(Dual a, Dual b) {
      return {static_cast<std::uint8_t>((a.zero & b.zero) | (a.one & b.one)),
              static_cast<std::uint8_t>((a.zero & b.one) | (a.one & b.zero))};
    }
    /// sel ? hi : lo, known under an X select when both branches agree.
    friend Dual lane_mux(Dual sel, Dual lo, Dual hi) {
      return {static_cast<std::uint8_t>((sel.zero & lo.zero) | (sel.one & hi.zero) |
                                        (lo.zero & hi.zero)),
              static_cast<std::uint8_t>((sel.zero & lo.one) | (sel.one & hi.one) |
                                        (lo.one & hi.one))};
    }
  };

  /// `v` with the faulty machine held at the stuck value.
  Dual force(Dual v) const {
    return stuck_at_ ? Dual{static_cast<std::uint8_t>(v.zero & 1),
                            static_cast<std::uint8_t>(v.one | 2)}
                     : Dual{static_cast<std::uint8_t>(v.zero | 2),
                            static_cast<std::uint8_t>(v.one & 1)};
  }

  struct Objective {
    bool valid = false;
    std::uint32_t slot = 0;
    bool value = false;
  };

  /// Write slot `slot`; when whether it holds a D flips, update the D
  /// operand counts of its readers, the D-frontier bitmap and the count of
  /// observation points holding a D.
  void set_value(std::uint32_t slot, Dual v);
  /// Write pattern input `input` (0, 1 or kX) into its slot and mark it dirty.
  void assign(std::size_t input, std::uint8_t value);
  /// Settle the dirty slots' fanout (CompiledNetlist::propagate).
  void imply();
  /// Some observation point holds a D.
  bool detected() const { return observed_d_ != 0; }
  /// Fault activation first, then the first D-frontier gate with an input
  /// X in both machines; invalid means backtrack.
  Objective pick_objective() const;
  /// Walk an objective back to an unassigned (pseudo-)input; returns the
  /// input *index* into the pattern and the value to assign.
  std::pair<std::size_t, bool> backtrace(const Objective& objective) const;

  const CombinationalFrame* frame_;
  const CompiledNetlist* compiled_;
  std::size_t max_backtracks_;
  std::vector<Dual> base_values_;            // the decision-free settle, no fault
  std::vector<std::uint8_t> base_inputs_;    // its pattern inputs: constraints, else X
  std::vector<Dual> values_;                 // slot values of the current decisions
  std::vector<std::uint8_t> input_values_;   // per pattern index: 0/1/X
  std::vector<std::uint32_t> input_slots_;   // pattern index -> slot
  std::vector<std::size_t> input_of_slot_;   // slot -> pattern index or npos
  std::vector<std::uint32_t> driver_of_slot_;  // slot -> instruction or none
  std::vector<std::uint8_t> observed_;       // slot -> 1 at a PO or flop D capture
  std::vector<std::uint8_t> d_operands_;     // instruction -> operands holding a D
  std::vector<std::uint64_t> frontier_;      // instructions with d_operands_ > 0
  std::vector<std::uint64_t> pending_;       // propagate's worklist bitmap
  std::vector<std::uint32_t> dirty_;
  std::size_t observed_d_ = 0;               // observation slots holding a D
  std::uint32_t fault_slot_ = 0;
  bool stuck_at_ = false;
};

}  // namespace retscan
