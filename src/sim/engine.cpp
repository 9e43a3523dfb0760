#include "sim/engine.hpp"

#include <algorithm>
#include <bit>

#include "util/cancel.hpp"
#include "util/error.hpp"

namespace retscan {

SimEngine::SimEngine(const Netlist& netlist, LaneWord activity_lanes)
    : netlist_(&netlist),
      compiled_(netlist.compiled()),
      activity_lanes_(activity_lanes),
      flop_state_(netlist.cell_count(), 0),
      retention_state_(netlist.cell_count(), 0),
      prev_retain_(netlist.cell_count(), 0),
      toggles_(netlist.cell_count(), 0) {
  net_values_.assign(compiled_->slot_count(), 0);
  DomainId max_domain = 0;
  for (CellId id = 0; id < netlist.cell_count(); ++id) {
    const Cell& c = netlist.cell(id);
    max_domain = std::max(max_domain, c.domain);
    if (c.type == CellType::Const1) {
      const1_slots_.emplace_back(compiled_->slot(c.out), id);
    }
    if (cell_is_flop(c.type)) {
      flop_cells_.push_back(id);
    }
    if (!cell_is_sequential(c.type)) {
      continue;
    }
    SeqCell s;
    s.id = id;
    s.type = c.type;
    s.out = compiled_->slot(c.out);
    s.domain = c.domain;
    switch (c.type) {
      case CellType::Dff:
        s.d = compiled_->slot(c.fanin[0]);
        break;
      case CellType::Sdff:
        s.d = compiled_->slot(c.fanin[0]);
        s.si = compiled_->slot(c.fanin[1]);
        s.se = compiled_->slot(c.fanin[2]);
        break;
      case CellType::Rdff:
        s.d = compiled_->slot(c.fanin[0]);
        s.si = compiled_->slot(c.fanin[1]);
        s.se = compiled_->slot(c.fanin[2]);
        s.retain = compiled_->slot(c.fanin[3]);
        break;
      case CellType::LatchL:
        s.d = compiled_->slot(c.fanin[0]);
        s.retain = compiled_->slot(c.fanin[1]);  // EN pin
        break;
      default:
        break;
    }
    seq_cells_.push_back(s);
  }
  for (const CellId input : netlist.inputs()) {
    input_by_name_.emplace(netlist.cell(input).name, netlist.cell(input).out);
  }
  domain_powered_.assign(static_cast<std::size_t>(max_domain) + 1, kAllLanes);
  domain_seq_cells_.resize(domain_powered_.size());
  for (const SeqCell& s : seq_cells_) {
    domain_seq_cells_[s.domain].push_back(s.id);
  }
  next_state_.resize(seq_cells_.size(), 0);
  write_mask_.resize(seq_cells_.size(), 0);
  pending_.assign((compiled_->instrs().size() + 63) / 64, 0);
  dirty_slots_.reserve(64);
  // Activity threshold: once a settle would evaluate more than a quarter of
  // the instruction stream, the mark-and-scan overhead stops paying and one
  // full sweep is cheaper.
  event_budget_ = std::max<std::size_t>(64, compiled_->instrs().size() / 4);
  reset();
}

NetId SimEngine::input_net(const std::string& port_name) const {
  const auto it = input_by_name_.find(port_name);
  RETSCAN_CHECK(it != input_by_name_.end(), "SimEngine: no input port " + port_name);
  return it->second;
}

void SimEngine::check_input_net(NetId net) const {
  RETSCAN_CHECK(net < net_values_.size(), "SimEngine::set_input: bad net");
  const CellId drv = netlist_->driver(net);
  RETSCAN_CHECK(drv != kNullCell && netlist_->cell(drv).type == CellType::Input,
                "SimEngine::set_input: net is not a primary input");
}

void SimEngine::reset() {
  std::fill(flop_state_.begin(), flop_state_.end(), LaneWord{0});
  std::fill(retention_state_.begin(), retention_state_.end(), LaneWord{0});
  std::fill(prev_retain_.begin(), prev_retain_.end(), LaneWord{0});
  std::fill(domain_powered_.begin(), domain_powered_.end(), kAllLanes);
  all_powered_ = true;
  std::fill(net_values_.begin(), net_values_.end(), LaneWord{0});
  dirty_slots_.clear();
  event_needs_full_ = true;
  rearm_auto_probe();
  commit_sequential_outputs();
  eval();
}

void SimEngine::set_schedule(Schedule schedule) {
  if (schedule == schedule_) {
    return;
  }
  schedule_ = schedule;
  dirty_slots_.clear();
  event_needs_full_ = true;
  rearm_auto_probe();
}

ScheduleTelemetry SimEngine::take_schedule_telemetry() {
  ScheduleTelemetry out = telemetry_;
  telemetry_ = ScheduleTelemetry{};
  return out;
}

void SimEngine::invalidate_schedule_state() {
  dirty_slots_.clear();
  event_needs_full_ = true;
  rearm_auto_probe();
}

void SimEngine::rearm_auto_probe() {
  auto_use_event_ = true;
  auto_locked_ = false;
  auto_probe_left_ = kAutoProbeWindow;
  auto_event_instrs_ = 0;
  auto_capacity_ = 0;
  auto_fallbacks_ = 0;
}

void SimEngine::drive_slot(std::uint32_t slot, CellId cell, LaneWord value) {
  const LaneWord old = net_values_[slot];
  if (old != value) {
    net_values_[slot] = value;
    toggles_[cell] += static_cast<std::uint64_t>(std::popcount((old ^ value) & activity_lanes_));
    if (event_active()) {
      dirty_slots_.push_back(slot);
    }
  }
}

void SimEngine::full_sweep() {
  // One compiled sweep over the flat instruction stream. Sweep-invariant
  // state is resolved once up front: the all-powered common case skips the
  // per-gate domain lookup entirely (the gated case reads a single snapshot
  // pointer), and an engine with no activity lanes (PackedSim) skips toggle
  // accounting — plain stores, no compare per gate.
  LaneWord* v = net_values_.data();
  const bool toggles = activity_lanes_ != 0;
  if (all_powered_) {
    if (toggles) {
      for (const CompiledInstr& in : compiled_->instrs()) {
        const LaneWord old = v[in.out];
        const LaneWord value = CompiledNetlist::eval_instr(in, v);
        if (old != value) {
          v[in.out] = value;
          toggles_[in.cell] +=
              static_cast<std::uint64_t>(std::popcount((old ^ value) & activity_lanes_));
        }
      }
    } else {
      for (const CompiledInstr& in : compiled_->instrs()) {
        v[in.out] = CompiledNetlist::eval_instr(in, v);
      }
    }
  } else {
    const LaneWord* clamps = domain_powered_.data();
    if (toggles) {
      for (const CompiledInstr& in : compiled_->instrs()) {
        const LaneWord old = v[in.out];
        const LaneWord value = CompiledNetlist::eval_instr(in, v) & clamps[in.domain];
        if (old != value) {
          v[in.out] = value;
          toggles_[in.cell] +=
              static_cast<std::uint64_t>(std::popcount((old ^ value) & activity_lanes_));
        }
      }
    } else {
      for (const CompiledInstr& in : compiled_->instrs()) {
        v[in.out] = CompiledNetlist::eval_instr(in, v) & clamps[in.domain];
      }
    }
  }
}

void SimEngine::eval() {
  // Cancellation point of the compiled-kernel settle loop: one relaxed
  // atomic load per settle (noise next to a sweep), so a SIGINT lands
  // within one settle even when a shard is deep in a long sequence. The
  // campaign shard loop catches Cancelled and reports the shard as not
  // completed — partial statistics stay mergeable.
  if (global_cancel_requested()) {
    throw Cancelled(CancelReason::User,
                    "SimEngine: settle loop interrupted by cancellation "
                    "request");
  }
  const std::size_t instr_count = compiled_->instrs().size();
  telemetry_.instr_capacity += instr_count;
  if (!event_active()) {
    full_sweep();
    telemetry_.full_sweeps += 1;
    telemetry_.sweep_instrs += instr_count;
    return;
  }
  if (event_needs_full_) {
    // Resync sweep: the dirty set cannot name everything stale (reset,
    // power transition, schedule switch). Not an activity signal, so the
    // Auto probe does not count it.
    full_sweep();
    dirty_slots_.clear();
    event_needs_full_ = false;
    telemetry_.full_sweeps += 1;
    telemetry_.sweep_instrs += instr_count;
    return;
  }
  // Dirty-set settle. The store owns the value array: it mirrors drive_slot
  // (clamp, compare, toggle accounting) but does NOT list the slot dirty —
  // propagate already marks its readers, and listing it would poison the
  // seed of the next settle.
  LaneWord* v = net_values_.data();
  const bool toggles = activity_lanes_ != 0;
  const LaneWord* clamps = domain_powered_.data();
  const bool clamp = !all_powered_;
  const auto store = [&](const CompiledInstr& in) -> bool {
    LaneWord value = CompiledNetlist::eval_instr(in, v);
    if (clamp) {
      value &= clamps[in.domain];
    }
    const LaneWord old = v[in.out];
    if (old == value) {
      return false;
    }
    v[in.out] = value;
    if (toggles) {
      toggles_[in.cell] +=
          static_cast<std::uint64_t>(std::popcount((old ^ value) & activity_lanes_));
    }
    return true;
  };
  const CompiledNetlist::Settle result =
      compiled_->propagate(dirty_slots_, pending_, store, event_budget_);
  dirty_slots_.clear();
  telemetry_.event_instrs += result.evaluated;
  if (result.fell_back) {
    full_sweep();
    telemetry_.full_sweeps += 1;
    telemetry_.full_sweep_fallbacks += 1;
    telemetry_.sweep_instrs += instr_count;
  } else {
    telemetry_.event_sweeps += 1;
  }
  // Auto probe: measure genuine event-attempt settles, then commit.
  if (schedule_ == Schedule::Auto && !auto_locked_) {
    auto_capacity_ += instr_count;
    auto_event_instrs_ += result.evaluated + (result.fell_back ? instr_count : 0);
    auto_fallbacks_ += result.fell_back ? 1 : 0;
    if (--auto_probe_left_ == 0) {
      auto_locked_ = true;
      const bool too_dirty = auto_event_instrs_ * 8 > auto_capacity_;
      const bool too_flaky = auto_fallbacks_ * 2 > kAutoProbeWindow;
      auto_use_event_ = !(too_dirty || too_flaky);
    }
  }
}

void SimEngine::commit_sequential_outputs() {
  for (const SeqCell& s : seq_cells_) {
    drive_slot(s.out, s.id, flop_state_[s.id] & domain_powered_[s.domain]);
  }
  for (const auto& [slot, cell] : const1_slots_) {
    drive_slot(slot, cell, kAllLanes);
  }
}

void SimEngine::step() {
  eval();
  // Capture phase: next states from settled nets, with per-lane write masks.
  for (std::size_t i = 0; i < seq_cells_.size(); ++i) {
    const SeqCell& s = seq_cells_[i];
    const LaneWord powered = domain_powered_[s.domain];
    LaneWord next = 0;
    LaneWord write = 0;
    switch (s.type) {
      case CellType::Dff: {
        next = net_values_[s.d];
        write = powered;
        break;
      }
      case CellType::Sdff: {
        next = lane_mux(net_values_[s.se], net_values_[s.d], net_values_[s.si]);
        write = powered;
        break;
      }
      case CellType::Rdff: {
        const LaneWord retain = net_values_[s.retain];
        const LaneWord prev = prev_retain_[s.id];
        // Save: the balloon latch samples the master exactly once, on the
        // RETAIN rising edge, and only while the domain is powered. It must
        // NOT re-sample while RETAIN stays high through sleep/wake — the
        // master holds garbage then and the latch is the only good copy.
        const LaneWord save = retain & ~prev & powered;
        retention_state_[s.id] =
            (retention_state_[s.id] & ~save) | (flop_state_[s.id] & save);
        // Restore on the first powered RETAIN falling edge; functional/scan
        // capture when RETAIN has been low; hold (clock gated) while high.
        const LaneWord restore = prev & ~retain & powered;
        const LaneWord functional = ~prev & ~retain & powered;
        const LaneWord d = lane_mux(net_values_[s.se], net_values_[s.d], net_values_[s.si]);
        next = (restore & retention_state_[s.id]) | (functional & d);
        write = restore | functional;
        prev_retain_[s.id] = retain;
        break;
      }
      case CellType::LatchL: {
        next = net_values_[s.d];
        write = powered & net_values_[s.retain];  // EN
        break;
      }
      default:
        break;
    }
    next_state_[i] = next;
    write_mask_[i] = write;
    clocked_cell_edges_ +=
        static_cast<std::uint64_t>(std::popcount(powered & activity_lanes_));
  }
  for (std::size_t i = 0; i < seq_cells_.size(); ++i) {
    const CellId id = seq_cells_[i].id;
    flop_state_[id] = (flop_state_[id] & ~write_mask_[i]) | (next_state_[i] & write_mask_[i]);
  }
  ++steps_;
  commit_sequential_outputs();
  eval();
}

void SimEngine::set_flop(CellId id, LaneWord value) {
  flop_state_[id] = value;
  commit_sequential_outputs();
  eval();
}

void SimEngine::power_off(DomainId domain, Rng* rng, bool per_lane_garbage) {
  RETSCAN_CHECK(domain < domain_powered_.size(), "SimEngine::power_off: bad domain");
  RETSCAN_CHECK(domain != kAlwaysOnDomain, "SimEngine: cannot power off the always-on domain");
  domain_powered_[domain] = 0;
  all_powered_ = false;
  // The clamp change can zero nets whose inputs did not move; the dirty set
  // cannot name them, so the next settle must be a full resync sweep.
  event_needs_full_ = true;
  for (const CellId id : domain_seq_cells_[domain]) {
    // Master state is physically lost. Retention latches are always-on by
    // construction and keep their contents.
    LaneWord garbage = 0;
    if (rng != nullptr) {
      garbage = per_lane_garbage ? rng->next_u64() : lane_broadcast(rng->next_bool(0.5));
    }
    flop_state_[id] = garbage;
  }
  commit_sequential_outputs();
  eval();
}

void SimEngine::power_on(DomainId domain) {
  RETSCAN_CHECK(domain < domain_powered_.size(), "SimEngine::power_on: bad domain");
  domain_powered_[domain] = kAllLanes;
  event_needs_full_ = true;
  all_powered_ =
      std::all_of(domain_powered_.begin(), domain_powered_.end(),
                  [](LaneWord powered) { return powered == kAllLanes; });
  commit_sequential_outputs();
  eval();
}

bool SimEngine::domain_powered(DomainId domain) const {
  RETSCAN_CHECK(domain < domain_powered_.size(), "SimEngine::domain_powered: bad domain");
  return domain_powered_[domain] != 0;
}

void SimEngine::reset_activity() {
  std::fill(toggles_.begin(), toggles_.end(), 0);
  steps_ = 0;
  clocked_cell_edges_ = 0;
}

}  // namespace retscan
