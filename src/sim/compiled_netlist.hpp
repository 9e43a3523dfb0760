#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/eval_kernel.hpp"
#include "util/error.hpp"

namespace retscan {

/// Opcode of one compiled combinational instruction. Only value-producing
/// combinational gates are compiled — constants and sequential outputs are
/// sources (written by the caller), Output port cells produce nothing.
enum class CompiledOp : std::uint8_t {
  Buf,
  Not,
  And2,
  Or2,
  Xor2,
  Nand2,
  Nor2,
  Xnor2,
  Mux2,
};

/// Number of value slots an instruction of `op` reads: in0, then in1, then
/// in2, in the originating cell's fanin order.
constexpr std::size_t operand_count(CompiledOp op) {
  switch (op) {
    case CompiledOp::Buf:
    case CompiledOp::Not: return 1;
    case CompiledOp::Mux2: return 3;
    default: return 2;
  }
}

/// One packed gate record of the compiled instruction stream. Operands are
/// value *slots* (nets renumbered in evaluation order, see CompiledNetlist);
/// unused operand fields are zero and never read for the instruction's op.
/// 24 bytes per gate, laid out flat, replaces the seed's pointer-chasing
/// walk over `Cell` objects (heap `std::vector<NetId> fanin`, `std::string
/// name`) in every simulation hot loop.
struct CompiledInstr {
  std::uint32_t in0 = 0;  // value slots
  std::uint32_t in1 = 0;
  std::uint32_t in2 = 0;
  std::uint32_t out = 0;     // value slot this instruction drives
  CellId cell = kNullCell;   // originating cell (activity accounting, faults)
  DomainId domain = kAlwaysOnDomain;
  CompiledOp op = CompiledOp::Buf;

  /// Operand slot `pin` (below operand_count(op)).
  std::uint32_t operand(std::size_t pin) const {
    return pin == 0 ? in0 : pin == 1 ? in1 : in2;
  }
};

/// Compiled simulation core: the combinational portion of a Netlist lowered
/// once into a flat, cache-friendly instruction stream.
///
///  * Nets are renumbered into *slots* in evaluation order — source nets
///    (primary inputs, constants, sequential outputs, dangling nets) first,
///    then each compiled gate's output in `combinational_order()`, which is
///    Kahn's algorithm with a FIFO queue and so emits the gates level by
///    level (the constructor checks it). Every
///    instruction therefore only reads slots below the one it writes, and a
///    full sweep walks the value array almost monotonically.
///  * `eval_full` evaluates the whole stream (the fault-frame good machine
///    and the sequential fault model). SimEngine runs its own sweeps over
///    `eval_instr`, masking each output with its domain's isolation clamp
///    and counting toggles.
///  * `propagate` evaluates only the dirty set: one ascending scan of a
///    bitmap over instruction indices, seeded from changed source slots and
///    spread through the readers CSR, with caller-side change detection
///    deciding what keeps propagating. Bit-identical to `eval_full` because
///    instructions are pure functions of their operands — an instruction
///    with no changed operand recomputes its current output, so skipping it
///    is exact. SimEngine's event schedule runs it with a budget checked at
///    level boundaries; PODEM's implication runs it without, and fault
///    simulation through `propagate_change`, which keeps propagating only
///    where a value changed, so a fault costs what its flip disturbs.
///
/// A CompiledNetlist is self-contained (no back-pointer into the Netlist),
/// so the shared instance cached by Netlist::compiled() stays valid across
/// netlist moves and copies; it describes the structure as of lowering time
/// and is discarded by the netlist on any structural mutation.
class CompiledNetlist {
 public:
  explicit CompiledNetlist(const Netlist& netlist);

  /// One slot per net of the source netlist.
  std::size_t slot_count() const { return slot_of_net_.size(); }
  std::uint32_t slot(NetId net) const {
    RETSCAN_CHECK(net < slot_of_net_.size(), "CompiledNetlist::slot: bad net");
    return slot_of_net_[net];
  }
  NetId net_of_slot(std::uint32_t slot) const {
    RETSCAN_CHECK(slot < net_of_slot_.size(), "CompiledNetlist: bad slot");
    return net_of_slot_[slot];
  }

  /// The flat instruction stream in topological evaluation order.
  const std::vector<CompiledInstr>& instrs() const { return instrs_; }

  /// The instructions whose operands include slot `s`, ascending; a gate
  /// reading `s` on two pins is listed twice.
  std::span<const std::uint32_t> readers(std::uint32_t s) const {
    return {reader_instrs_.data() + reader_offsets_[s],
            reader_instrs_.data() + reader_offsets_[s + 1]};
  }

  /// Evaluate one instruction against a slot-indexed value array. Lanes is
  /// either LaneWord (64 lanes, the cycle engines) or LaneBlock
  /// (kLaneBlockBits lanes, the wide sweep/fault datapath); both share this
  /// one kernel so gate semantics cannot diverge between widths.
  template <typename Lanes>
  static Lanes eval_instr(const CompiledInstr& in, const Lanes* v) {
    switch (in.op) {
      case CompiledOp::Buf: return v[in.in0];
      case CompiledOp::Not: return ~v[in.in0];
      case CompiledOp::And2: return v[in.in0] & v[in.in1];
      case CompiledOp::Or2: return v[in.in0] | v[in.in1];
      case CompiledOp::Xor2: return v[in.in0] ^ v[in.in1];
      case CompiledOp::Nand2: return ~(v[in.in0] & v[in.in1]);
      case CompiledOp::Nor2: return ~(v[in.in0] | v[in.in1]);
      case CompiledOp::Xnor2: return ~(v[in.in0] ^ v[in.in1]);
      case CompiledOp::Mux2: return lane_mux(v[in.in0], v[in.in1], v[in.in2]);
    }
    return Lanes{};
  }

  /// Full-sweep settle: values must hold slot_count() lane words with every
  /// source slot already written.
  void eval_full(LaneWord* values) const;
  /// Block-wide full sweep: values holds slot_count() LaneBlocks, lane-major
  /// and contiguous, so one sweep walks kLaneBlockBits lanes per slot.
  void eval_full(LaneBlock* values) const;

  /// What one `propagate` settle did.
  struct Settle {
    /// Instructions evaluated (including the partial work of a settle that
    /// fell back — those values are final either way).
    std::size_t evaluated = 0;
    /// True when the settle stopped at the budget and the caller must finish
    /// it with a full sweep.
    bool fell_back = false;
  };
  static constexpr std::size_t kNoBudget = SIZE_MAX;

  /// Dirty-set settle: mark the readers of `dirty_slots` in `pending`, a
  /// caller-owned bitmap over instruction indices ((instrs().size() + 63) /
  /// 64 words, all zero), then pop the lowest marked instruction until none
  /// is left. `store(instr) -> bool` owns the value array: it evaluates the
  /// instruction (applying any clamping/activity accounting) and returns
  /// whether its output changed, which marks the output's readers. A reader
  /// sits above every instruction writing one of its operands, so marks
  /// only land ahead of the scan: each instruction runs at most once, after
  /// everything it reads, and the values are eval_full's. `pending` is all
  /// zero again on return.
  ///
  /// `budget` is checked when the scan enters a level. Marks come only from
  /// lower levels, so the level's marked set is complete by then; if
  /// evaluating it would take the count past `budget`, the settle clears
  /// `pending` and returns `fell_back`. Work below that level is final, so
  /// one full sweep completes the settle.
  template <typename Store>
  Settle propagate(std::span<const std::uint32_t> dirty_slots,
                   std::vector<std::uint64_t>& pending, Store&& store,
                   std::size_t budget = kNoBudget) const {
    Settle result;
    std::uint64_t* const marks = pending.data();
    // The word the scan is in lives in `word`: a reader sits above the
    // instruction that marks it, so its mark lands there or in a later word.
    std::size_t w = SIZE_MAX;
    std::uint64_t word = 0;
    std::size_t lo = pending.size();
    std::size_t hi = 0;
    const auto mark_readers = [&](std::uint32_t s) {
      const std::uint32_t* it = reader_instrs_.data() + reader_offsets_[s];
      const std::uint32_t* const end = reader_instrs_.data() + reader_offsets_[s + 1];
      if (it == end) {
        return;
      }
      lo = std::min<std::size_t>(lo, *it / 64);
      hi = std::max<std::size_t>(hi, end[-1] / 64 + 1);
      for (; it != end; ++it) {
        const std::uint64_t bit = std::uint64_t{1} << (*it % 64);
        if (*it / 64 == w) {
          word |= bit;
        } else {
          marks[*it / 64] |= bit;
        }
      }
    };
    for (const std::uint32_t s : dirty_slots) {
      mark_readers(s);
    }
    // Without a budget the level check never fires.
    std::size_t level_end = budget == kNoBudget ? SIZE_MAX : 0;
    for (w = lo; w < hi; ++w) {
      word = std::exchange(marks[w], 0);
      while (word != 0) {
        const std::size_t i = w * 64 + static_cast<std::size_t>(std::countr_zero(word));
        if (i >= level_end) {
          // Enter i's level. At most level_end - i of its instructions are
          // marked, so they are counted only when that many could cross the
          // budget.
          level_end = *std::upper_bound(level_begin_.begin(), level_begin_.end(), i);
          if (result.evaluated + (level_end - i) > budget) {
            marks[w] = word;
            if (result.evaluated + count_marked(pending, w, level_end) > budget) {
              std::fill(marks + w, marks + hi, std::uint64_t{0});
              result.fell_back = true;
              return result;
            }
            marks[w] = 0;
          }
        }
        word &= word - 1;
        ++result.evaluated;
        if (store(instrs_[i])) {
          mark_readers(instrs_[i].out);
        }
      }
    }
    return result;
  }

  /// Change-driven settle of a LaneBlock value array after the caller
  /// changed slot `source`: propagate from it, re-evaluating each reached
  /// instruction and keeping its new output only where it differs from the
  /// held one in the lanes of `live`. Then `changed(slot, diff)` runs (the
  /// held value is still in place), the output is written and its readers
  /// follow; an unchanged output stops the walk there. Exact in the `live`
  /// lanes: an instruction whose operands all hold their old values there
  /// recomputes its old output.
  template <typename Changed>
  void propagate_change(std::uint32_t source, LaneBlock* values, const LaneBlock& live,
                        std::vector<std::uint64_t>& pending, Changed&& changed) const {
    propagate(std::span(&source, 1), pending, [&](const CompiledInstr& in) {
      const LaneBlock value = eval_instr(in, values);
      const LaneBlock diff = (value ^ values[in.out]) & live;
      if (!block_any(diff)) {
        return false;
      }
      changed(in.out, diff);
      values[in.out] = value;
      return true;
    });
  }

  /// The retained reference interpreter: the seed's per-`Cell` evaluation
  /// walk (combinational_order + eval_comb_word over NetId-indexed values,
  /// Output cells skipped, no clamping). Kept as the independent oracle for
  /// the compiled kernel in equivalence tests and as the interpreted
  /// baseline in bench_engine.
  static void reference_eval(const Netlist& netlist, std::vector<LaneWord>& values_by_net);

 private:
  /// Marked instructions from word `w`, whose bits below the scan are
  /// already clear, up to instruction index `end`.
  static std::size_t count_marked(const std::vector<std::uint64_t>& pending, std::size_t w,
                                  std::size_t end) {
    std::size_t count = 0;
    for (; w < end / 64; ++w) {
      count += static_cast<std::size_t>(std::popcount(pending[w]));
    }
    if (end % 64 != 0) {
      const std::uint64_t below = (std::uint64_t{1} << (end % 64)) - 1;
      count += static_cast<std::size_t>(std::popcount(pending[end / 64] & below));
    }
    return count;
  }

  std::vector<std::uint32_t> slot_of_net_;
  std::vector<NetId> net_of_slot_;
  std::vector<CompiledInstr> instrs_;
  /// First instruction of each topological level (source slots sit at
  /// level 0, an instruction one above its deepest operand), then
  /// instrs().size(). The stream is sorted by level, so each level is one
  /// contiguous range.
  std::vector<std::uint32_t> level_begin_;
  // Readers CSR: reader_instrs_[reader_offsets_[s] .. reader_offsets_[s+1])
  // are the instruction indices whose operands include slot s.
  std::vector<std::uint32_t> reader_offsets_;
  std::vector<std::uint32_t> reader_instrs_;
};

}  // namespace retscan
