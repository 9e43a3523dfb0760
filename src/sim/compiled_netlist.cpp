#include "sim/compiled_netlist.hpp"

#include <algorithm>
#include <bit>

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
  DomainId max_domain = 0;
  for (CellId id = 0; id < netlist.cell_count(); ++id) {
    max_domain = std::max(max_domain, netlist.cell(id).domain);
  }
  domain_count_ = static_cast<std::size_t>(max_domain) + 1;
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

  // Readers CSR over slots, for cone extraction.
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

  // Topological levels for the event scheduler: source slots sit at level 0,
  // each instruction one above its deepest operand. The stream is already
  // topological, so one forward pass suffices.
  std::vector<std::uint32_t> slot_level(net_count, 0);
  instr_level_.resize(instrs_.size());
  for (std::uint32_t i = 0; i < instrs_.size(); ++i) {
    std::uint32_t level = 0;
    each_operand(instrs_[i], [&](std::uint32_t s) {
      level = std::max(level, slot_level[s]);
    });
    instr_level_[i] = level;
    slot_level[instrs_[i].out] = level + 1;
    level_count_ = std::max(level_count_, static_cast<std::size_t>(level) + 1);
  }
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

CompiledNetlist::Cone CompiledNetlist::build_cone(NetId source) const {
  Cone cone;
  cone.source_slot = slot(source);
  // One ascending scan over a bitmap of instruction indices. A reader always
  // sits above the instruction writing its operand, so marking the readers
  // of the instruction being visited only sets bits ahead of the scan: the
  // cone comes out in evaluation order with no queue and no sort, and words
  // outside [lo, hi) are never visited.
  std::vector<std::uint64_t> marked((instrs_.size() + 63) / 64, 0);
  std::size_t lo = marked.size();
  std::size_t hi = 0;
  const auto mark_readers = [&](std::uint32_t s) {
    for (std::uint32_t r = reader_offsets_[s]; r < reader_offsets_[s + 1]; ++r) {
      const std::uint32_t i = reader_instrs_[r];
      marked[i / 64] |= std::uint64_t{1} << (i % 64);
      lo = std::min<std::size_t>(lo, i / 64);
      hi = std::max<std::size_t>(hi, i / 64 + 1);
    }
  };
  mark_readers(cone.source_slot);
  for (std::size_t w = lo; w < hi; ++w) {
    while (marked[w] != 0) {
      const std::uint32_t i =
          static_cast<std::uint32_t>(w * 64 + std::countr_zero(marked[w]));
      marked[w] &= marked[w] - 1;
      cone.instrs.push_back(i);
      mark_readers(instrs_[i].out);
    }
  }
  cone.touched_slots.reserve(cone.instrs.size() + 1);
  cone.touched_slots.push_back(cone.source_slot);
  for (const std::uint32_t i : cone.instrs) {
    cone.touched_slots.push_back(instrs_[i].out);
  }
  return cone;
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
