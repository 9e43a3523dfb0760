#include "sim/compiled_netlist.hpp"

#include <algorithm>

namespace retscan {

namespace {

CompiledOp lower_op(CellType type) {
  switch (type) {
    case CellType::Buf: return CompiledOp::Buf;
    case CellType::Not: return CompiledOp::Not;
    case CellType::And2: return CompiledOp::And2;
    case CellType::Or2: return CompiledOp::Or2;
    case CellType::Xor2: return CompiledOp::Xor2;
    case CellType::Nand2: return CompiledOp::Nand2;
    case CellType::Nor2: return CompiledOp::Nor2;
    case CellType::Xnor2: return CompiledOp::Xnor2;
    case CellType::Mux2: return CompiledOp::Mux2;
    default:
      RETSCAN_CHECK(false, "CompiledNetlist: not a compilable gate");
      return CompiledOp::Buf;
  }
}

}  // namespace

CompiledNetlist::CompiledNetlist(const Netlist& netlist) {
  const std::size_t net_count = netlist.net_count();
  constexpr std::uint32_t kUnassigned = ~std::uint32_t{0};
  slot_of_net_.assign(net_count, kUnassigned);
  net_of_slot_.resize(net_count);

  const std::vector<CellId>& order = netlist.combinational_order();

  // Mark which nets are driven by compiled instructions; everything else is
  // a source slot (inputs, constants, sequential outputs, dangling nets).
  std::vector<bool> compiled_out(net_count, false);
  std::size_t gate_count = 0;
  for (const CellId id : order) {
    const Cell& c = netlist.cell(id);
    if (c.type == CellType::Output) {
      continue;
    }
    compiled_out[c.out] = true;
    ++gate_count;
  }

  // Slot renumbering: sources first (in NetId order), then each gate output
  // in topological order — so instruction operands always sit below the
  // output slot and a sweep touches the value array front-to-back.
  std::uint32_t next_slot = 0;
  for (NetId net = 0; net < net_count; ++net) {
    if (!compiled_out[net]) {
      slot_of_net_[net] = next_slot;
      net_of_slot_[next_slot] = net;
      ++next_slot;
    }
  }
  for (const CellId id : order) {
    const Cell& c = netlist.cell(id);
    if (c.type == CellType::Output) {
      continue;
    }
    slot_of_net_[c.out] = next_slot;
    net_of_slot_[next_slot] = c.out;
    ++next_slot;
  }
  RETSCAN_CHECK(next_slot == net_count, "CompiledNetlist: slot renumbering leak");

  // Lower the instruction stream.
  instrs_.reserve(gate_count);
  for (const CellId id : order) {
    const Cell& c = netlist.cell(id);
    if (c.type == CellType::Output) {
      continue;
    }
    CompiledInstr in;
    in.op = lower_op(c.type);
    in.cell = id;
    in.domain = c.domain;
    in.out = slot_of_net_[c.out];
    if (c.fanin.size() > 0) in.in0 = slot_of_net_[c.fanin[0]];
    if (c.fanin.size() > 1) in.in1 = slot_of_net_[c.fanin[1]];
    if (c.fanin.size() > 2) in.in2 = slot_of_net_[c.fanin[2]];
    instrs_.push_back(in);
  }

  // Readers CSR over slots, for propagate.
  reader_offsets_.assign(net_count + 1, 0);
  auto each_operand = [&](const CompiledInstr& in, auto&& fn) {
    for (std::size_t pin = 0; pin < operand_count(in.op); ++pin) {
      fn(in.operand(pin));
    }
  };
  for (const CompiledInstr& in : instrs_) {
    each_operand(in, [&](std::uint32_t s) { ++reader_offsets_[s + 1]; });
  }
  for (std::size_t s = 0; s < net_count; ++s) {
    reader_offsets_[s + 1] += reader_offsets_[s];
  }
  reader_instrs_.resize(reader_offsets_.back());
  std::vector<std::uint32_t> cursor(reader_offsets_.begin(), reader_offsets_.end() - 1);
  for (std::uint32_t i = 0; i < instrs_.size(); ++i) {
    each_operand(instrs_[i],
                 [&](std::uint32_t s) { reader_instrs_[cursor[s]++] = i; });
  }

  // Level offsets for propagate's budget: source slots sit at level 0, each
  // instruction one above its deepest operand.
  std::vector<std::uint32_t> slot_level(net_count, 0);
  for (std::uint32_t i = 0; i < instrs_.size(); ++i) {
    std::uint32_t level = 0;
    each_operand(instrs_[i], [&](std::uint32_t s) {
      level = std::max(level, slot_level[s]);
    });
    slot_level[instrs_[i].out] = level + 1;
    RETSCAN_CHECK(level + 1 >= level_begin_.size(),
                  "CompiledNetlist: instruction stream not sorted by level");
    while (level_begin_.size() <= level) {
      level_begin_.push_back(i);
    }
  }
  level_begin_.push_back(static_cast<std::uint32_t>(instrs_.size()));
}

void CompiledNetlist::eval_full(LaneWord* values) const {
  for (const CompiledInstr& in : instrs_) {
    values[in.out] = eval_instr(in, values);
  }
}

void CompiledNetlist::eval_full(LaneBlock* values) const {
  for (const CompiledInstr& in : instrs_) {
    values[in.out] = eval_instr(in, values);
  }
}

void CompiledNetlist::reference_eval(const Netlist& netlist,
                                     std::vector<LaneWord>& values_by_net) {
  RETSCAN_CHECK(values_by_net.size() == netlist.net_count(),
                "CompiledNetlist::reference_eval: value array size mismatch");
  for (const CellId id : netlist.combinational_order()) {
    const Cell& c = netlist.cell(id);
    if (c.type == CellType::Output) {
      continue;
    }
    values_by_net[c.out] = eval_comb_word(c, values_by_net);
  }
}

// Defined here rather than in netlist.cpp so the netlist layer never includes
// sim headers: the sim layer owns the compiled core and implements the
// cache accessor the netlist declares.
std::shared_ptr<const CompiledNetlist> Netlist::compiled() const {
  if (!compiled_) {
    compiled_ = std::make_shared<const CompiledNetlist>(*this);
  }
  return compiled_;
}

}  // namespace retscan
