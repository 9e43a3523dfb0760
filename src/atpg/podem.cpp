#include "atpg/podem.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/error.hpp"

namespace retscan {

namespace {
constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();
constexpr std::uint32_t kNoDriver = ~std::uint32_t{0};
}  // namespace

Podem::Podem(const CombinationalFrame& frame, std::size_t max_backtracks)
    : frame_(&frame),
      compiled_(&frame.compiled()),
      max_backtracks_(max_backtracks),
      base_values_(compiled_->slot_count(), Dual::of(0)),
      base_inputs_(frame.pattern_width(), kX),
      input_of_slot_(compiled_->slot_count(), kNpos),
      driver_of_slot_(compiled_->slot_count(), kNoDriver),
      observed_(compiled_->slot_count(), 0),
      d_operands_(compiled_->instrs().size(), 0),
      frontier_((compiled_->instrs().size() + 63) / 64, 0),
      pending_(frontier_.size(), 0) {
  const Netlist& nl = frame.netlist();
  input_slots_.reserve(frame.pattern_width());
  for (const NetId net : frame.pi_nets()) {
    input_slots_.push_back(compiled_->slot(net));
  }
  for (const CellId flop : frame.flops()) {
    input_slots_.push_back(compiled_->slot(nl.cell(flop).out));
  }
  for (std::size_t i = 0; i < input_slots_.size(); ++i) {
    input_of_slot_[input_slots_[i]] = i;
    base_values_[input_slots_[i]] = Dual::of(kX);
  }
  for (const NetId po : frame.po_nets()) {
    observed_[compiled_->slot(po)] = 1;
  }
  for (const CellId flop : frame.flops()) {
    observed_[compiled_->slot(nl.cell(flop).fanin[0])] = 1;
  }
  for (CellId id = 0; id < nl.cell_count(); ++id) {
    if (nl.cell(id).type == CellType::Const1) {
      base_values_[compiled_->slot(nl.cell(id).out)] = Dual::of(1);
    }
  }
  const std::vector<CompiledInstr>& instrs = compiled_->instrs();
  for (std::uint32_t i = 0; i < instrs.size(); ++i) {
    driver_of_slot_[instrs[i].out] = i;
  }
  // The one full settle: the decision-free frame with no fault. Constrained
  // inputs are fixed before any decision and are never X, so backtrace
  // cannot choose them and backtracking cannot flip them.
  for (const auto& [index, value] : frame.constraints()) {
    base_inputs_[index] = value ? 1 : 0;
    base_values_[input_slots_[index]] = Dual::of(base_inputs_[index]);
  }
  for (const CompiledInstr& in : instrs) {
    base_values_[in.out] = CompiledNetlist::eval_instr(in, base_values_.data());
  }
}

void Podem::set_value(std::uint32_t slot, Dual v) {
  const bool was_d = values_[slot].is_d();
  values_[slot] = v;
  if (v.is_d() == was_d) {
    return;
  }
  // A gate reading the slot on two pins is listed twice, so its count moves
  // by two and stays exact.
  if (was_d) {
    for (const std::uint32_t i : compiled_->readers(slot)) {
      if (--d_operands_[i] == 0) {
        frontier_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
      }
    }
    observed_d_ -= observed_[slot];
  } else {
    for (const std::uint32_t i : compiled_->readers(slot)) {
      if (d_operands_[i]++ == 0) {
        frontier_[i / 64] |= std::uint64_t{1} << (i % 64);
      }
    }
    observed_d_ += observed_[slot];
  }
}

void Podem::assign(std::size_t input, std::uint8_t value) {
  input_values_[input] = value;
  const std::uint32_t slot = input_slots_[input];
  set_value(slot, slot == fault_slot_ ? force(Dual::of(value)) : Dual::of(value));
  dirty_.push_back(slot);
}

void Podem::imply() {
  compiled_->propagate(dirty_, pending_, [this](const CompiledInstr& in) {
    Dual v = CompiledNetlist::eval_instr(in, values_.data());
    if (in.out == fault_slot_) {
      v = force(v);
    }
    if (v == values_[in.out]) {
      return false;
    }
    set_value(in.out, v);
    return true;
  });
  dirty_.clear();
}

Podem::Objective Podem::pick_objective() const {
  Objective objective;
  // Phase 1: activate the fault; a site the good machine holds at the
  // stuck value cannot be activated under these decisions.
  const Dual site = values_[fault_slot_];
  if ((site.known() & 1) == 0) {
    objective.valid = true;
    objective.slot = fault_slot_;
    objective.value = !stuck_at_;
    return objective;
  }
  if (((stuck_at_ ? site.one : site.zero) & 1) != 0) {
    return objective;
  }
  // Phase 2: advance the D-frontier — the first gate (in evaluation order)
  // with a D input, an output X in either machine and an input X in both;
  // that input gets the gate's non-controlling value.
  const CompiledInstr* instrs = compiled_->instrs().data();
  for (std::size_t w = 0; w < frontier_.size(); ++w) {
    for (std::uint64_t bits = frontier_[w]; bits != 0; bits &= bits - 1) {
      const CompiledInstr& in =
          instrs[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
      if (values_[in.out].known() == 3) {
        continue;
      }
      for (std::size_t pin = 0; pin < operand_count(in.op); ++pin) {
        if (values_[in.operand(pin)].known() != 0) {
          continue;
        }
        objective.valid = true;
        objective.slot = in.operand(pin);
        switch (in.op) {
          case CompiledOp::And2:
          case CompiledOp::Nand2:
            objective.value = true;
            break;
          case CompiledOp::Mux2:
            // Select the side carrying the D.
            objective.value = pin == 0 && !values_[in.in1].is_d();
            break;
          default:
            objective.value = false;  // OR-family 0; XOR-family any definite value
            break;
        }
        return objective;
      }
    }
  }
  return objective;  // invalid — caller backtracks
}

std::pair<std::size_t, bool> Podem::backtrace(const Objective& objective) const {
  const CompiledInstr* instrs = compiled_->instrs().data();
  std::uint32_t slot = objective.slot;
  bool value = objective.value;
  for (;;) {
    if (input_of_slot_[slot] != kNpos) {
      return {input_of_slot_[slot], value};
    }
    RETSCAN_CHECK(driver_of_slot_[slot] != kNoDriver,
                  "Podem::backtrace: X on a source that is not an input");
    const CompiledInstr& in = instrs[driver_of_slot_[slot]];
    // Walk through the first input X in the good machine; a gate whose
    // good output is X has one.
    std::size_t pin = 0;
    while (values_[in.operand(pin)].known() & 1) {
      ++pin;
      RETSCAN_CHECK(pin < operand_count(in.op), "Podem::backtrace: no X path to inputs");
    }
    if (in.op == CompiledOp::Not || in.op == CompiledOp::Nand2 ||
        in.op == CompiledOp::Nor2) {
      value = !value;
    }
    slot = in.operand(pin);  // Buf/And/Or/Xor-family/Mux2: keep value
  }
}

PodemResult Podem::generate(const Fault& fault, Rng& rng) {
  PodemResult result;
  fault_slot_ = compiled_->slot(fault.net);
  stuck_at_ = fault.stuck_at;

  // The decision-free settle with the fault forced: the site's driver reads
  // only slots upstream of it, so only what the site reaches can move.
  values_ = base_values_;
  input_values_ = base_inputs_;
  std::fill(d_operands_.begin(), d_operands_.end(), 0);
  std::fill(frontier_.begin(), frontier_.end(), 0);
  observed_d_ = 0;
  set_value(fault_slot_, force(values_[fault_slot_]));
  dirty_.push_back(fault_slot_);
  imply();

  struct Decision {
    std::size_t input;
    bool flipped;
  };
  std::vector<Decision> stack;

  const std::size_t iteration_limit = 20000;
  for (std::size_t iteration = 0; iteration < iteration_limit; ++iteration) {
    if (detected()) {
      result.success = true;
      result.pattern = BitVec(frame_->pattern_width());
      for (std::size_t i = 0; i < input_values_.size(); ++i) {
        const std::uint8_t v = input_values_[i];
        result.pattern.set(i, v == kX ? rng.next_bool(0.5) : v == 1);
      }
      return result;
    }

    const Objective objective = pick_objective();
    if (!objective.valid) {
      // Backtrack chronologically: unassign exhausted decisions and flip the
      // newest unflipped one; all of it settles as one dirty set.
      for (;;) {
        if (stack.empty()) {
          result.untestable = true;
          return result;
        }
        Decision& top = stack.back();
        if (!top.flipped) {
          top.flipped = true;
          assign(top.input, input_values_[top.input] == 1 ? 0 : 1);
          ++result.backtracks;
          break;
        }
        assign(top.input, kX);
        stack.pop_back();
      }
      if (result.backtracks > max_backtracks_) {
        result.aborted = true;
        return result;
      }
      imply();
      continue;
    }

    const auto [input, value] = backtrace(objective);
    assign(input, value ? 1 : 0);
    stack.push_back(Decision{input, false});
    imply();
  }
  result.aborted = true;
  return result;
}

}  // namespace retscan
