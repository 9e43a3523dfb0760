#include "sim/packed_sim.hpp"

#include "util/error.hpp"

namespace retscan {

// No activity lanes: PackedSim exposes no toggle/energy accounting, and an
// activity-free engine runs the cheaper plain-store evaluation sweep.
PackedSim::PackedSim(const Netlist& netlist) : engine_(netlist, 0) {}

void PackedSim::set_input(const std::string& port_name, LaneWord lanes) {
  set_input(engine_.input_net(port_name), lanes);
}

void PackedSim::set_input(NetId net, LaneWord lanes) {
  engine_.check_input_net(net);
  engine_.set_net(net, lanes);
}

void PackedSim::set_input_all(const std::string& port_name, bool value) {
  set_input(port_name, lane_broadcast(value));
}

void PackedSim::set_input_all(NetId net, bool value) {
  set_input(net, lane_broadcast(value));
}

void PackedSim::reset() { engine_.reset(); }

void PackedSim::eval() { engine_.eval(); }

void PackedSim::step() { engine_.step(); }

void PackedSim::step_n(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    step();
  }
}

LaneWord PackedSim::net_lanes(NetId net) const {
  RETSCAN_CHECK(net < engine_.net_count(), "PackedSim::net_lanes: bad net");
  return engine_.net(net);
}

bool PackedSim::net_value(NetId net, std::size_t lane) const {
  RETSCAN_CHECK(lane < kLaneCount, "PackedSim::net_value: bad lane");
  return (net_lanes(net) >> lane & 1u) != 0;
}

LaneWord PackedSim::flop_lanes(CellId flop) const {
  RETSCAN_CHECK(flop < netlist().cell_count() && cell_is_flop(netlist().cell(flop).type),
                "PackedSim::flop_lanes: not a flop");
  return engine_.flop(flop);
}

void PackedSim::set_flop_lanes(CellId flop, LaneWord lanes) {
  RETSCAN_CHECK(flop < netlist().cell_count() && cell_is_flop(netlist().cell(flop).type),
                "PackedSim::set_flop_lanes: not a flop");
  engine_.set_flop_raw(flop, lanes);
}

BitVec PackedSim::flop_states(std::size_t lane) const {
  RETSCAN_CHECK(lane < kLaneCount, "PackedSim::flop_states: bad lane");
  const auto& flops = engine_.flop_cells();
  BitVec states(flops.size());
  for (std::size_t i = 0; i < flops.size(); ++i) {
    states.set(i, (engine_.flop(flops[i]) >> lane & 1u) != 0);
  }
  return states;
}

void PackedSim::set_flop_states(const std::vector<BitVec>& rows) {
  if (rows.empty()) {
    return;  // no lanes to load; every lane keeps its state
  }
  const auto& flops = engine_.flop_cells();
  const LaneWord keep = ~lane_mask(rows.size());
  for (std::size_t lane = 0; lane < rows.size(); ++lane) {
    RETSCAN_CHECK(rows[lane].size() == flops.size(),
                  "PackedSim::set_flop_states: size mismatch");
  }
  const std::vector<LaneWord> packed = pack_lanes(rows);
  for (std::size_t i = 0; i < flops.size(); ++i) {
    engine_.set_flop_raw(flops[i], (engine_.flop(flops[i]) & keep) | packed[i]);
  }
  refresh();
}

void PackedSim::flip_retention(CellId flop, LaneWord lane_mask) {
  RETSCAN_CHECK(flop < netlist().cell_count() && netlist().cell(flop).type == CellType::Rdff,
                "PackedSim::flip_retention: not an Rdff");
  engine_.xor_retention(flop, lane_mask);
}

void PackedSim::refresh() {
  engine_.commit_sequential_outputs();
  engine_.eval();
}

void PackedSim::power_off(DomainId domain, Rng* rng) {
  engine_.power_off(domain, rng, /*per_lane_garbage=*/true);
}

void PackedSim::power_on(DomainId domain) { engine_.power_on(domain); }

bool PackedSim::domain_powered(DomainId domain) const {
  return engine_.domain_powered(domain);
}

}  // namespace retscan
