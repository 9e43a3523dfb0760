#include "sim/simulator.hpp"

#include "util/error.hpp"

namespace retscan {

double ActivityReport::average_power_mw(double clock_period_ns) const {
  if (steps == 0 || clock_period_ns <= 0.0) {
    return 0.0;
  }
  const double total_time_ns = static_cast<double>(steps) * clock_period_ns;
  // pJ / ns == mW.
  return dynamic_energy_pj / total_time_ns;
}

Simulator::Simulator(const Netlist& netlist)
    : engine_(netlist, LaneWord{1}) {}  // activity accounted on lane 0 only

void Simulator::set_input(const std::string& port_name, bool value) {
  set_input(engine_.input_net(port_name), value);
}

void Simulator::set_input(NetId net, bool value) {
  engine_.check_input_net(net);
  engine_.set_net(net, lane_broadcast(value));
}

void Simulator::reset() { engine_.reset(); }

void Simulator::eval() { engine_.eval(); }

void Simulator::step() { engine_.step(); }

void Simulator::step_n(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    step();
  }
}

bool Simulator::net_value(NetId net) const {
  RETSCAN_CHECK(net < engine_.net_count(), "Simulator::net_value: bad net");
  return (engine_.net(net) & 1u) != 0;
}

bool Simulator::output(const std::string& port_name) const {
  return net_value(netlist().output_net(port_name));
}

bool Simulator::flop_state(CellId flop) const {
  RETSCAN_CHECK(flop < netlist().cell_count() && cell_is_flop(netlist().cell(flop).type),
                "Simulator::flop_state: not a flop");
  return (engine_.flop(flop) & 1u) != 0;
}

void Simulator::set_flop_state(CellId flop, bool value) {
  RETSCAN_CHECK(flop < netlist().cell_count() && cell_is_flop(netlist().cell(flop).type),
                "Simulator::set_flop_state: not a flop");
  engine_.set_flop(flop, lane_broadcast(value));
}

BitVec Simulator::flop_states() const {
  const auto& flops = engine_.flop_cells();
  BitVec states(flops.size());
  for (std::size_t i = 0; i < flops.size(); ++i) {
    states.set(i, (engine_.flop(flops[i]) & 1u) != 0);
  }
  return states;
}

void Simulator::set_flop_states(const BitVec& states) {
  const auto& flops = engine_.flop_cells();
  RETSCAN_CHECK(states.size() == flops.size(), "Simulator::set_flop_states: size mismatch");
  for (std::size_t i = 0; i < flops.size(); ++i) {
    engine_.set_flop_raw(flops[i], lane_broadcast(states.get(i)));
  }
  engine_.commit_sequential_outputs();
  engine_.eval();
}

void Simulator::set_flop_states(const std::vector<std::pair<CellId, bool>>& updates) {
  for (const auto& [flop, value] : updates) {
    RETSCAN_CHECK(flop < netlist().cell_count() && cell_is_flop(netlist().cell(flop).type),
                  "Simulator::set_flop_states: not a flop");
    engine_.set_flop_raw(flop, lane_broadcast(value));
  }
  engine_.commit_sequential_outputs();
  engine_.eval();
}

bool Simulator::retention_state(CellId flop) const {
  RETSCAN_CHECK(flop < netlist().cell_count() && netlist().cell(flop).type == CellType::Rdff,
                "Simulator::retention_state: not an Rdff");
  return (engine_.retention(flop) & 1u) != 0;
}

void Simulator::set_retention_state(CellId flop, bool value) {
  RETSCAN_CHECK(flop < netlist().cell_count() && netlist().cell(flop).type == CellType::Rdff,
                "Simulator::set_retention_state: not an Rdff");
  engine_.set_retention(flop, lane_broadcast(value));
}

void Simulator::flip_retention(CellId flop) {
  set_retention_state(flop, !retention_state(flop));
}

void Simulator::power_off(DomainId domain, Rng* rng) {
  engine_.power_off(domain, rng, /*per_lane_garbage=*/false);
}

void Simulator::power_on(DomainId domain) { engine_.power_on(domain); }

bool Simulator::domain_powered(DomainId domain) const {
  return engine_.domain_powered(domain);
}

void Simulator::reset_activity() { engine_.reset_activity(); }

ActivityReport Simulator::activity(const TechLibrary& tech) const {
  ActivityReport report;
  report.steps = engine_.steps();
  const auto& toggles = engine_.toggles();
  double energy = 0.0;
  for (CellId id = 0; id < netlist().cell_count(); ++id) {
    report.output_toggles += toggles[id];
    energy += static_cast<double>(toggles[id]) *
              tech.physics(netlist().cell(id).type).switch_energy_pj;
  }
  // Clock-tree/pin energy: every powered sequential cell pays a fraction of
  // its switching energy on each clock edge it receives.
  double clock_energy = 0.0;
  if (engine_.clocked_cell_edges() > 0) {
    // Average sequential switch energy weighted by actual edges delivered.
    // For simplicity each edge is charged at the Sdff rate; the netlists in
    // this library are dominated by scan flops, for which this is exact.
    clock_energy = static_cast<double>(engine_.clocked_cell_edges()) *
                   kClockPinEnergyFraction * tech.physics(CellType::Sdff).switch_energy_pj;
  }
  report.dynamic_energy_pj = energy + clock_energy;
  return report;
}

}  // namespace retscan
