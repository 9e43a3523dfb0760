#pragma once

#include <cstdint>
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
///    then each compiled gate's output in topological order. Every
///    instruction therefore only reads slots below the one it writes, and a
///    full sweep walks the value array almost monotonically.
///  * `eval_full` evaluates the whole stream (the fault-frame good machine
///    and the sequential fault model). SimEngine runs its own sweeps over
///    `eval_instr`, masking each output with its domain's isolation clamp
///    and counting toggles.
///  * `eval_event` evaluates only the dirty set: a worklist seeded from
///    changed source slots and propagated level-by-level through the
///    readers CSR, with caller-side change detection deciding what keeps
///    propagating. Bit-identical to `eval_full` because instructions are
///    pure functions of their operands — an instruction with no changed
///    operand recomputes its current output, so skipping it is exact.
///  * `build_cone` extracts the fanout cone of one net as the instruction
///    slice it can disturb plus the touched-slot undo list, which is what
///    makes incremental per-fault simulation O(cone) instead of O(circuit).
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

  /// Number of power domains referenced by any cell (>= 1).
  std::size_t domain_count() const { return domain_count_; }

  /// Topological level of instruction `i` (0 = all operands are source
  /// slots). Within a level, instructions are independent: they write
  /// distinct slots and read only strictly lower levels.
  std::uint32_t instr_level(std::uint32_t i) const { return instr_level_[i]; }
  /// Number of distinct instruction levels (longest combinational path).
  std::size_t level_count() const { return level_count_; }

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

  /// Reusable scratch state for `eval_event`: per-level instruction buckets
  /// plus a scheduled flag per instruction. Both are left empty/zero between
  /// calls, so one workspace serves any number of settles; allocation
  /// happens once on first use.
  struct EventWorkspace {
    std::vector<std::vector<std::uint32_t>> levels;
    std::vector<std::uint8_t> scheduled;
    bool ready = false;
  };
  void init_event_workspace(EventWorkspace& ws) const {
    ws.levels.assign(level_count_, {});
    ws.scheduled.assign(instrs_.size(), 0);
    ws.ready = true;
  }

  struct EventResult {
    /// Instructions evaluated by the worklist (including partial work of a
    /// settle that fell back — those values are final either way).
    std::size_t evaluated = 0;
    /// True when the worklist crossed `budget` and the caller must finish
    /// the settle with a full sweep.
    bool fell_back = false;
  };

  /// Dirty-set settle: seed the worklist with the readers of `dirty_slots`
  /// (source slots whose values changed since the last settle), then drain
  /// level by level. `store(instr) -> bool` owns the value array: it
  /// evaluates the instruction (applying any clamping/activity accounting)
  /// and returns whether the output value changed; only changed outputs
  /// propagate. Level order guarantees every instruction sees final operand
  /// values, so even the partial work of a fallen-back settle is exact and
  /// a subsequent full sweep recomputes identical values.
  template <typename Store>
  EventResult eval_event(const std::vector<std::uint32_t>& dirty_slots,
                         EventWorkspace& ws, std::size_t budget,
                         Store&& store) const {
    if (!ws.ready) {
      init_event_workspace(ws);
    }
    EventResult result;
    const auto schedule_readers = [&](std::uint32_t s) {
      for (std::uint32_t r = reader_offsets_[s]; r < reader_offsets_[s + 1]; ++r) {
        const std::uint32_t i = reader_instrs_[r];
        if (!ws.scheduled[i]) {
          ws.scheduled[i] = 1;
          ws.levels[instr_level_[i]].push_back(i);
        }
      }
    };
    for (const std::uint32_t s : dirty_slots) {
      schedule_readers(s);
    }
    for (std::size_t lvl = 0; lvl < ws.levels.size(); ++lvl) {
      std::vector<std::uint32_t>& bucket = ws.levels[lvl];
      if (bucket.empty()) {
        continue;
      }
      if (result.evaluated + bucket.size() > budget) {
        // Clear the remaining schedule so the workspace is reusable; work
        // already done below this level is final and need not be undone.
        for (std::size_t l = lvl; l < ws.levels.size(); ++l) {
          for (const std::uint32_t i : ws.levels[l]) {
            ws.scheduled[i] = 0;
          }
          ws.levels[l].clear();
        }
        result.fell_back = true;
        return result;
      }
      // schedule_readers only appends to strictly higher levels (a reader of
      // this bucket's outputs has level > lvl), so iterating by range is
      // safe while the worklist grows.
      for (const std::uint32_t i : bucket) {
        ws.scheduled[i] = 0;
        if (store(instrs_[i])) {
          schedule_readers(instrs_[i].out);
        }
      }
      result.evaluated += bucket.size();
      bucket.clear();
    }
    return result;
  }

  /// Fanout cone of one net: everything a change of the net can disturb
  /// within the combinational frame (the stuck-at fault cone).
  struct Cone {
    /// The net's slot (the caller forces it before replay).
    std::uint32_t source_slot = 0;
    /// Instruction indices downstream of the source, ascending (topological),
    /// collected by one ascending bitmap scan.
    std::vector<std::uint32_t> instrs;
    /// Undo list: the source slot, then every cone output slot — restoring
    /// exactly these returns a workspace to the good-machine values.
    /// Instruction i writes the slot after every source slot plus i, so the
    /// output slots ascend like `instrs`.
    std::vector<std::uint32_t> touched_slots;
  };
  Cone build_cone(NetId source) const;

  /// The retained reference interpreter: the seed's per-`Cell` evaluation
  /// walk (combinational_order + eval_comb_word over NetId-indexed values,
  /// Output cells skipped, no clamping). Kept as the independent oracle for
  /// the compiled kernel in equivalence tests and as the interpreted
  /// baseline in bench_engine.
  static void reference_eval(const Netlist& netlist, std::vector<LaneWord>& values_by_net);

 private:
  std::vector<std::uint32_t> slot_of_net_;
  std::vector<NetId> net_of_slot_;
  std::vector<CompiledInstr> instrs_;
  std::vector<std::uint32_t> instr_level_;
  std::size_t level_count_ = 0;
  std::size_t domain_count_ = 1;
  // Readers CSR: reader_instrs_[reader_offsets_[s] .. reader_offsets_[s+1])
  // are the instruction indices whose operands include slot s.
  std::vector<std::uint32_t> reader_offsets_;
  std::vector<std::uint32_t> reader_instrs_;
};

}  // namespace retscan
