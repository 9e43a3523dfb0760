#include "netlist/netlist.hpp"

#include <algorithm>
#include <deque>

#include "util/error.hpp"
#include "util/fnv.hpp"

namespace retscan {

std::string_view cell_type_name(CellType type) {
  switch (type) {
    case CellType::Const0: return "const0";
    case CellType::Const1: return "const1";
    case CellType::Buf: return "buf";
    case CellType::Not: return "not";
    case CellType::And2: return "and2";
    case CellType::Or2: return "or2";
    case CellType::Xor2: return "xor2";
    case CellType::Nand2: return "nand2";
    case CellType::Nor2: return "nor2";
    case CellType::Xnor2: return "xnor2";
    case CellType::Mux2: return "mux2";
    case CellType::Dff: return "dff";
    case CellType::Sdff: return "sdff";
    case CellType::Rdff: return "rdff";
    case CellType::LatchL: return "latchl";
    case CellType::Input: return "input";
    case CellType::Output: return "output";
  }
  return "?";
}

NetId Netlist::add_net(const std::string& net_name) {
  const NetId id = static_cast<NetId>(net_driver_.size());
  net_driver_.push_back(kNullCell);
  net_names_.emplace_back(net_name);
  if (!net_name.empty()) {
    RETSCAN_CHECK(!net_by_name_.contains(net_name), "Netlist: duplicate net name " + net_name);
    net_by_name_.emplace(net_name, id);
  }
  invalidate_fanouts();
  return id;
}

CellId Netlist::driver(NetId net) const {
  RETSCAN_CHECK(net < net_driver_.size(), "Netlist::driver: bad net");
  return net_driver_[net];
}

const std::string& Netlist::net_name(NetId net) const {
  RETSCAN_CHECK(net < net_names_.size(), "Netlist::net_name: bad net");
  return net_names_[net];
}

void Netlist::set_net_name(NetId net, const std::string& net_name) {
  RETSCAN_CHECK(net < net_names_.size(), "Netlist::set_net_name: bad net");
  if (!net_names_[net].empty()) {
    net_by_name_.erase(net_names_[net]);
  }
  net_names_[net] = net_name;
  if (!net_name.empty()) {
    RETSCAN_CHECK(!net_by_name_.contains(net_name), "Netlist: duplicate net name " + net_name);
    net_by_name_.emplace(net_name, net);
  }
}

NetId Netlist::find_net(const std::string& net_name) const {
  const auto it = net_by_name_.find(net_name);
  RETSCAN_CHECK(it != net_by_name_.end(), "Netlist: no net named " + net_name);
  return it->second;
}

bool Netlist::has_net(const std::string& net_name) const {
  return net_by_name_.contains(net_name);
}

CellId Netlist::add_cell(CellType type, std::vector<NetId> fanin, const std::string& cell_name) {
  RETSCAN_CHECK(fanin.size() == cell_fanin_count(type),
                std::string("Netlist::add_cell: wrong pin count for ") +
                    std::string(cell_type_name(type)));
  for (const NetId net : fanin) {
    RETSCAN_CHECK(net < net_driver_.size(), "Netlist::add_cell: fanin net does not exist");
  }
  const CellId id = static_cast<CellId>(cells_.size());
  Cell cell;
  cell.type = type;
  cell.fanin = std::move(fanin);
  cell.name = cell_name;
  if (cell_has_output(type)) {
    cell.out = add_net();
    net_driver_[cell.out] = id;
  }
  cells_.push_back(std::move(cell));
  invalidate_fanouts();
  return id;
}

std::size_t Netlist::replace_readers(NetId from, NetId to, CellId limit) {
  RETSCAN_CHECK(from < net_driver_.size() && to < net_driver_.size(),
                "Netlist::replace_readers: bad net");
  RETSCAN_CHECK(limit <= cells_.size(), "Netlist::replace_readers: bad limit");
  std::size_t replaced = 0;
  for (CellId id = 0; id < limit; ++id) {
    for (NetId& net : cells_[id].fanin) {
      if (net == from) {
        net = to;
        ++replaced;
      }
    }
  }
  invalidate_fanouts();
  return replaced;
}

CellId Netlist::add_cell_bound(CellType type, std::vector<NetId> fanin, NetId out,
                               const std::string& cell_name) {
  RETSCAN_CHECK(fanin.size() == cell_fanin_count(type),
                "Netlist::add_cell_bound: wrong pin count");
  for (const NetId net : fanin) {
    RETSCAN_CHECK(net < net_driver_.size(), "Netlist::add_cell_bound: bad fanin net");
  }
  const CellId id = static_cast<CellId>(cells_.size());
  Cell cell;
  cell.type = type;
  cell.fanin = std::move(fanin);
  cell.name = cell_name;
  if (cell_has_output(type)) {
    RETSCAN_CHECK(out < net_driver_.size(), "Netlist::add_cell_bound: bad output net");
    RETSCAN_CHECK(net_driver_[out] == kNullCell,
                  "Netlist::add_cell_bound: output net already driven");
    cell.out = out;
    net_driver_[out] = id;
  } else {
    RETSCAN_CHECK(out == kNullNet, "Netlist::add_cell_bound: Output cell has no out net");
  }
  cells_.push_back(std::move(cell));
  if (type == CellType::Input) {
    inputs_.push_back(id);
  } else if (type == CellType::Output) {
    outputs_.push_back(id);
    RETSCAN_CHECK(!output_by_name_.contains(cell_name),
                  "Netlist::add_cell_bound: duplicate output port " + cell_name);
    output_by_name_.emplace(cell_name, id);
  }
  invalidate_fanouts();
  return id;
}

const Cell& Netlist::cell(CellId id) const {
  RETSCAN_CHECK(id < cells_.size(), "Netlist::cell: bad cell id");
  return cells_[id];
}

void Netlist::set_domain(CellId id, DomainId domain) {
  RETSCAN_CHECK(id < cells_.size(), "Netlist::set_domain: bad cell id");
  cells_[id].domain = domain;
}

void Netlist::rewire_fanin(CellId id, std::size_t pin, NetId net) {
  RETSCAN_CHECK(id < cells_.size(), "Netlist::rewire_fanin: bad cell id");
  RETSCAN_CHECK(pin < cells_[id].fanin.size(), "Netlist::rewire_fanin: bad pin");
  RETSCAN_CHECK(net < net_driver_.size(), "Netlist::rewire_fanin: bad net");
  cells_[id].fanin[pin] = net;
  invalidate_fanouts();
}

void Netlist::convert_flop(CellId id, CellType new_type, const std::vector<NetId>& extra_fanin) {
  RETSCAN_CHECK(id < cells_.size(), "Netlist::convert_flop: bad cell id");
  Cell& c = cells_[id];
  RETSCAN_CHECK(c.type == CellType::Dff, "Netlist::convert_flop: cell is not a plain Dff");
  RETSCAN_CHECK(new_type == CellType::Sdff || new_type == CellType::Rdff,
                "Netlist::convert_flop: target must be Sdff or Rdff");
  RETSCAN_CHECK(1 + extra_fanin.size() == cell_fanin_count(new_type),
                "Netlist::convert_flop: wrong extra pin count");
  for (const NetId net : extra_fanin) {
    RETSCAN_CHECK(net < net_driver_.size(), "Netlist::convert_flop: bad net");
  }
  c.type = new_type;
  c.fanin.insert(c.fanin.end(), extra_fanin.begin(), extra_fanin.end());
  invalidate_fanouts();
}

NetId Netlist::add_input(const std::string& port_name) {
  const CellId id = add_cell(CellType::Input, {}, port_name);
  inputs_.push_back(id);
  set_net_name(cells_[id].out, port_name);
  return cells_[id].out;
}

CellId Netlist::add_output(const std::string& port_name, NetId net) {
  const CellId id = add_cell(CellType::Output, {net}, port_name);
  outputs_.push_back(id);
  RETSCAN_CHECK(!output_by_name_.contains(port_name),
                "Netlist: duplicate output port " + port_name);
  output_by_name_.emplace(port_name, id);
  return id;
}

NetId Netlist::input_net(const std::string& port_name) const {
  return find_net(port_name);
}

NetId Netlist::output_net(const std::string& port_name) const {
  const auto it = output_by_name_.find(port_name);
  RETSCAN_CHECK(it != output_by_name_.end(), "Netlist: no output port " + port_name);
  return cells_[it->second].fanin[0];
}

NetId Netlist::n_const(bool value) {
  return cells_[add_cell(value ? CellType::Const1 : CellType::Const0, {})].out;
}
NetId Netlist::n_buf(NetId a) { return cells_[add_cell(CellType::Buf, {a})].out; }
NetId Netlist::n_not(NetId a) { return cells_[add_cell(CellType::Not, {a})].out; }
NetId Netlist::n_and(NetId a, NetId b) { return cells_[add_cell(CellType::And2, {a, b})].out; }
NetId Netlist::n_or(NetId a, NetId b) { return cells_[add_cell(CellType::Or2, {a, b})].out; }
NetId Netlist::n_xor(NetId a, NetId b) { return cells_[add_cell(CellType::Xor2, {a, b})].out; }
NetId Netlist::n_nand(NetId a, NetId b) { return cells_[add_cell(CellType::Nand2, {a, b})].out; }
NetId Netlist::n_nor(NetId a, NetId b) { return cells_[add_cell(CellType::Nor2, {a, b})].out; }
NetId Netlist::n_xnor(NetId a, NetId b) { return cells_[add_cell(CellType::Xnor2, {a, b})].out; }
NetId Netlist::n_mux(NetId sel, NetId lo, NetId hi) {
  return cells_[add_cell(CellType::Mux2, {sel, lo, hi})].out;
}

NetId Netlist::n_and_tree(const std::vector<NetId>& nets) {
  RETSCAN_CHECK(!nets.empty(), "Netlist::n_and_tree: empty input");
  std::vector<NetId> level = nets;
  while (level.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(n_and(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) {
      next.push_back(level.back());
    }
    level = std::move(next);
  }
  return level[0];
}

NetId Netlist::n_or_tree(const std::vector<NetId>& nets) {
  RETSCAN_CHECK(!nets.empty(), "Netlist::n_or_tree: empty input");
  std::vector<NetId> level = nets;
  while (level.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(n_or(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) {
      next.push_back(level.back());
    }
    level = std::move(next);
  }
  return level[0];
}

NetId Netlist::n_xor_tree(const std::vector<NetId>& nets) {
  RETSCAN_CHECK(!nets.empty(), "Netlist::n_xor_tree: empty input");
  std::vector<NetId> level = nets;
  while (level.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(n_xor(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) {
      next.push_back(level.back());
    }
    level = std::move(next);
  }
  return level[0];
}

NetId Netlist::n_dff(NetId d, const std::string& cell_name) {
  return cells_[add_cell(CellType::Dff, {d}, cell_name)].out;
}

std::vector<CellId> Netlist::flops() const {
  std::vector<CellId> out;
  for (CellId id = 0; id < cells_.size(); ++id) {
    if (cell_is_flop(cells_[id].type)) {
      out.push_back(id);
    }
  }
  return out;
}

const std::vector<std::vector<CellId>>& Netlist::fanouts() const {
  if (!fanouts_valid_) {
    fanouts_.assign(net_driver_.size(), {});
    for (CellId id = 0; id < cells_.size(); ++id) {
      for (const NetId net : cells_[id].fanin) {
        fanouts_[net].push_back(id);
      }
    }
    fanouts_valid_ = true;
  }
  return fanouts_;
}

const std::vector<CellId>& Netlist::combinational_order() const {
  if (comb_order_valid_) {
    return comb_order_;
  }
  // Kahn's algorithm over combinational cells only; sequential cell outputs
  // and primary inputs/constants are sources.
  std::vector<std::size_t> pending(cells_.size(), 0);
  std::deque<CellId> ready;
  for (CellId id = 0; id < cells_.size(); ++id) {
    const Cell& c = cells_[id];
    if (cell_is_sequential(c.type) || c.type == CellType::Input ||
        c.type == CellType::Const0 || c.type == CellType::Const1) {
      continue;
    }
    std::size_t unresolved = 0;
    for (const NetId net : c.fanin) {
      const CellId drv = net_driver_[net];
      RETSCAN_CHECK(drv != kNullCell, "Netlist: undriven net in combinational_order");
      const CellType dt = cells_[drv].type;
      if (!cell_is_sequential(dt) && dt != CellType::Input && dt != CellType::Const0 &&
          dt != CellType::Const1) {
        ++unresolved;
      }
    }
    pending[id] = unresolved;
    if (unresolved == 0) {
      ready.push_back(id);
    }
  }

  const auto& fo = fanouts();
  std::vector<CellId> order;
  std::size_t comb_total = 0;
  for (CellId id = 0; id < cells_.size(); ++id) {
    const CellType t = cells_[id].type;
    if (!cell_is_sequential(t) && t != CellType::Input && t != CellType::Const0 &&
        t != CellType::Const1) {
      ++comb_total;
    }
  }
  order.reserve(comb_total);
  while (!ready.empty()) {
    const CellId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    const Cell& c = cells_[id];
    if (c.out == kNullNet) {
      continue;
    }
    for (const CellId reader : fo[c.out]) {
      const CellType rt = cells_[reader].type;
      if (cell_is_sequential(rt) || rt == CellType::Input || rt == CellType::Const0 ||
          rt == CellType::Const1) {
        continue;
      }
      if (--pending[reader] == 0) {
        ready.push_back(reader);
      }
    }
  }
  RETSCAN_CHECK(order.size() == comb_total, "Netlist: combinational cycle detected");
  comb_order_ = std::move(order);
  comb_order_valid_ = true;
  return comb_order_;
}

std::unordered_map<CellType, std::size_t> Netlist::type_histogram() const {
  std::unordered_map<CellType, std::size_t> histogram;
  for (const Cell& c : cells_) {
    ++histogram[c.type];
  }
  return histogram;
}

std::uint64_t netlist_structure_fingerprint(const Netlist& netlist) {
  Fnv1a fp;
  fp.add_text(netlist.name());
  fp.add(netlist.net_count());
  fp.add(netlist.cell_count());
  for (CellId id = 0; id < netlist.cell_count(); ++id) {
    const Cell& cell = netlist.cell(id);
    fp.add(static_cast<std::uint64_t>(cell.type));
    fp.add(cell.domain);
    fp.add(cell.out);
    fp.add(cell.fanin.size());
    for (const NetId net : cell.fanin) {
      fp.add(net);
    }
  }
  for (const CellId id : netlist.inputs()) {
    fp.add(id);
  }
  for (const CellId id : netlist.outputs()) {
    fp.add(id);
  }
  return fp.hash;
}

}  // namespace retscan
