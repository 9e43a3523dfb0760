#include "atpg/podem.hpp"

#include <algorithm>
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
      sources_(compiled_->slot_count(), Dual::of(0)),
      input_values_(frame.pattern_width(), kX),
      input_of_slot_(compiled_->slot_count(), kNpos),
      driver_of_slot_(compiled_->slot_count(), kNoDriver) {
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
    sources_[input_slots_[i]] = Dual::of(kX);
  }
  for (CellId id = 0; id < nl.cell_count(); ++id) {
    if (nl.cell(id).type == CellType::Const1) {
      sources_[compiled_->slot(nl.cell(id).out)] = Dual::of(1);
    }
  }
  const std::vector<CompiledInstr>& instrs = compiled_->instrs();
  for (std::uint32_t i = 0; i < instrs.size(); ++i) {
    driver_of_slot_[instrs[i].out] = i;
  }
}

void Podem::assign(std::size_t input, std::uint8_t value) {
  input_values_[input] = value;
  const std::uint32_t slot = input_slots_[input];
  values_[slot] = slot == fault_slot_ ? force(Dual::of(value)) : Dual::of(value);
  dirty_.push_back(slot);
}

void Podem::imply() {
  compiled_->eval_event(dirty_, events_, std::numeric_limits<std::size_t>::max(),
                        [this](const CompiledInstr& in) {
                          Dual v = CompiledNetlist::eval_instr(in, values_.data());
                          if (in.out == fault_slot_) {
                            v = force(v);
                          }
                          if (v == values_[in.out]) {
                            return false;
                          }
                          values_[in.out] = v;
                          return true;
                        });
  dirty_.clear();
}

bool Podem::detected(const CombinationalFrame::FaultCone& cone) const {
  for (const auto& [word, slot] : cone.observables) {
    if (values_[slot].is_d()) {
      return true;
    }
  }
  return false;
}

Podem::Objective Podem::pick_objective(const CombinationalFrame::FaultCone& cone) const {
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
  // that input gets the gate's non-controlling value. Only cone gates can
  // read a D.
  const CompiledInstr* instrs = compiled_->instrs().data();
  for (const std::uint32_t i : cone.cone.instrs) {
    const CompiledInstr& in = instrs[i];
    const Dual out = values_[in.out];
    if (out.known() == 3) {
      continue;
    }
    const std::size_t pins = operand_count(in.op);
    bool has_d = false;
    for (std::size_t pin = 0; pin < pins && !has_d; ++pin) {
      has_d = values_[in.operand(pin)].is_d();
    }
    if (!has_d) {
      continue;
    }
    for (std::size_t pin = 0; pin < pins; ++pin) {
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
  const CombinationalFrame::FaultCone& cone = frame_->fault_cone(fault.net);
  fault_slot_ = compiled_->slot(fault.net);
  stuck_at_ = fault.stuck_at;

  // One full settle of the decision-free frame. Constrained inputs are fixed
  // before any decision and are never X, so backtrace cannot choose them and
  // backtracking cannot flip them.
  values_ = sources_;
  std::fill(input_values_.begin(), input_values_.end(), kX);
  for (const auto& [index, value] : frame_->constraints()) {
    assign(index, value ? 1 : 0);
  }
  values_[fault_slot_] = force(values_[fault_slot_]);
  for (const CompiledInstr& in : compiled_->instrs()) {
    const Dual v = CompiledNetlist::eval_instr(in, values_.data());
    values_[in.out] = in.out == fault_slot_ ? force(v) : v;
  }
  dirty_.clear();

  struct Decision {
    std::size_t input;
    bool flipped;
  };
  std::vector<Decision> stack;

  const std::size_t iteration_limit = 20000;
  for (std::size_t iteration = 0; iteration < iteration_limit; ++iteration) {
    if (detected(cone)) {
      result.success = true;
      result.pattern = BitVec(frame_->pattern_width());
      for (std::size_t i = 0; i < input_values_.size(); ++i) {
        const std::uint8_t v = input_values_[i];
        result.pattern.set(i, v == kX ? rng.next_bool(0.5) : v == 1);
      }
      return result;
    }

    const Objective objective = pick_objective(cone);
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
