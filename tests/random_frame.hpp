#pragma once

// Seeded generator of small random combinational frames, shared by the
// differential oracles: PODEM against exhaustive simulation
// (test_podem_oracle) and FFR fault simulation against the reference
// interpreter (test_ffr_oracle). A frame is a pure function of the Rng
// state, and the draws of a family never depend on the cases another
// family adds, so pinned digests over one family stay put. A failing check
// prints reduced_dump: the frame cut down to the failing fault's logic.

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "atpg/fault.hpp"
#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace retscan {

struct RandomFrame {
  Netlist netlist;
  std::vector<std::pair<std::string, bool>> constraints;
};

/// What a frame holds beyond reconvergent gates over inputs and PPIs.
struct FrameCases {
  /// Latch cells, whose outputs are frame sources the loader holds at 0.
  bool latches = false;
  /// The fanout-free-region edge cases: Const0 and Const1 sources, an
  /// undriven unread net, gates reading one net on two pins (AND2(a, a), a MUX2
  /// whose select is also a data input), single-reader nets that are also
  /// POs or PPOs, and unread gate outputs left unobserved.
  bool ffr_edges = false;
};

/// A small frame biased toward the hard cases: operands are drawn either
/// from the last few nets (depth) or from the whole pool (fanout that
/// reconverges), and every gate output nothing reads becomes an observation
/// point (bar the ones ffr_edges leaves dangling), so redundancy comes from
/// reconvergence rather than from dead logic.
inline RandomFrame random_frame(Rng& rng, const FrameCases& cases) {
  RandomFrame out;
  Netlist& nl = out.netlist;
  const std::size_t inputs = 3 + rng.next_below(8);  // 3..10, PPIs included
  const std::size_t ppis = rng.next_below(std::min<std::size_t>(inputs - 1, 4) + 1);
  std::vector<NetId> pool;
  for (std::size_t i = 0; i + ppis < inputs; ++i) {
    const std::string name = "i" + std::to_string(i);
    pool.push_back(nl.add_input(name));
    if (rng.next_bool(0.15)) {
      out.constraints.emplace_back(name, rng.next_bool(0.5));
    }
  }
  // Flops are created with a placeholder D and rewired once logic exists.
  std::vector<CellId> flops;
  for (std::size_t i = 0; i < ppis; ++i) {
    flops.push_back(nl.add_cell(CellType::Dff, {pool[0]}, "q" + std::to_string(i)));
    pool.push_back(nl.cell(flops.back()).out);
  }
  if (rng.next_bool(0.3)) {
    pool.push_back(nl.n_const(rng.next_bool(0.5)));
  }
  if (cases.ffr_edges) {
    pool.push_back(nl.n_const(false));
    pool.push_back(nl.n_const(true));
    nl.add_net("floating");  // undriven and unread: a source slot with no cone
  }
  const std::size_t first_gate = pool.size();
  const auto pick = [&]() {
    const std::size_t recent = std::min<std::size_t>(pool.size(), 3);
    return rng.next_bool(0.5) ? pool[pool.size() - 1 - rng.next_below(recent)]
                              : pool[rng.next_below(pool.size())];
  };
  const std::size_t gates = 4 + rng.next_below(30);
  for (std::size_t g = 0; g < gates; ++g) {
    if (cases.latches && rng.next_bool(0.08)) {
      // A latch output is a frame source the loader holds at 0.
      const NetId d = pick();
      const NetId en = pick();
      pool.push_back(nl.cell(nl.add_cell(CellType::LatchL, {d, en})).out);
      continue;
    }
    // Operands are drawn in sequence, never as call arguments, whose
    // evaluation order the compiler chooses: the frames must not depend on it.
    const NetId a = pick();
    NetId b = pick();
    if (cases.ffr_edges && rng.next_bool(0.15)) {
      b = a;  // one net on two pins; for a MUX2, the select is the lo input
    }
    NetId net = kNullNet;
    switch (rng.next_below(9)) {
      case 0: net = nl.n_buf(a); break;
      case 1: net = nl.n_not(a); break;
      case 2: net = nl.n_and(a, b); break;
      case 3: net = nl.n_or(a, b); break;
      case 4: net = nl.n_xor(a, b); break;
      case 5: net = nl.n_nand(a, b); break;
      case 6: net = nl.n_nor(a, b); break;
      case 7: net = nl.n_xnor(a, b); break;
      default: {
        NetId c = pick();
        if (cases.ffr_edges && rng.next_bool(0.3)) {
          c = a;  // the select is also the hi input
        }
        net = nl.n_mux(a, b, c);
        break;
      }
    }
    pool.push_back(net);
  }
  // Observe every gate output no gate reads: flop D pins first, then POs.
  std::vector<NetId> unread;
  for (std::size_t i = first_gate; i < pool.size(); ++i) {
    const auto gate_reads = [&](CellId reader) {
      return !cell_is_sequential(nl.cell(reader).type);
    };
    if (nl.cell(nl.driver(pool[i])).type != CellType::LatchL &&
        std::none_of(nl.fanouts()[pool[i]].begin(), nl.fanouts()[pool[i]].end(),
                     gate_reads)) {
      unread.push_back(pool[i]);
    }
  }
  for (const CellId flop : flops) {
    NetId d = kNullNet;
    if (!unread.empty()) {
      d = unread.back();
      unread.pop_back();
    } else {
      d = pool[first_gate + rng.next_below(pool.size() - first_gate)];
    }
    nl.rewire_fanin(flop, 0, d);
  }
  if (unread.empty() && flops.empty()) {
    unread.push_back(pool.back());
  }
  // Single-reader gate outputs to observe as well, picked before any PO or
  // new flop joins the fanout lists.
  std::vector<NetId> also_observed;
  if (cases.ffr_edges) {
    for (std::size_t i = first_gate; i < pool.size(); ++i) {
      if (nl.cell(nl.driver(pool[i])).type == CellType::LatchL) {
        continue;
      }
      std::vector<CellId> readers;
      for (const CellId reader : nl.fanouts()[pool[i]]) {
        if (!cell_is_sequential(nl.cell(reader).type)) {
          readers.push_back(reader);
        }
      }
      std::sort(readers.begin(), readers.end());
      readers.erase(std::unique(readers.begin(), readers.end()), readers.end());
      if (readers.size() == 1 && rng.next_bool(0.3)) {
        also_observed.push_back(pool[i]);
      }
    }
  }
  for (std::size_t i = 0; i < unread.size(); ++i) {
    if (cases.ffr_edges && i > 0 && rng.next_bool(0.25)) {
      continue;  // left dangling: a stem whose flip nothing observes
    }
    nl.add_output("y" + std::to_string(i), unread[i]);
  }
  for (std::size_t i = 0; i < also_observed.size(); ++i) {
    if (rng.next_bool(0.5)) {
      nl.add_output("o" + std::to_string(i), also_observed[i]);
    } else {
      nl.n_dff(also_observed[i], "p" + std::to_string(i));
    }
  }
  return out;
}

inline std::string net_label(const Netlist& nl, NetId net) {
  const std::string& name = nl.net_name(net);
  return name.empty() ? "n" + std::to_string(net) : name;
}

/// The frame reduced to the failing fault: every cell between the frame's
/// sources and the observation points the fault site can reach.
inline std::string reduced_dump(const RandomFrame& rf, const Fault& fault) {
  const Netlist& nl = rf.netlist;
  std::vector<bool> reached(nl.net_count(), false);
  reached[fault.net] = true;
  for (const CellId id : nl.combinational_order()) {
    const Cell& c = nl.cell(id);
    if (c.type == CellType::Output) {
      continue;
    }
    for (const NetId in : c.fanin) {
      reached[c.out] = reached[c.out] || reached[in];
    }
  }
  std::vector<std::string> observed;
  std::vector<NetId> work;
  for (const CellId id : nl.outputs()) {
    const NetId net = nl.cell(id).fanin[0];
    if (reached[net]) {
      observed.push_back("  output " + net_label(nl, net));
      work.push_back(net);
    }
  }
  for (const CellId id : nl.flops()) {
    const NetId net = nl.cell(id).fanin[0];
    if (reached[net]) {
      observed.push_back("  ppo " + nl.cell(id).name + ".D <- " + net_label(nl, net));
      work.push_back(net);
    }
  }
  std::vector<bool> needed(nl.net_count(), false);
  while (!work.empty()) {
    const NetId net = work.back();
    work.pop_back();
    if (needed[net]) {
      continue;
    }
    needed[net] = true;
    const Cell& c = nl.cell(nl.driver(net));
    if (!cell_is_sequential(c.type)) {
      work.insert(work.end(), c.fanin.begin(), c.fanin.end());
    }
  }
  std::string text = "fault " + fault_name(nl, fault) + "\n";
  for (const auto& [name, value] : rf.constraints) {
    text += "  constrain " + name + " = " + (value ? "1" : "0") + "\n";
  }
  for (CellId id = 0; id < nl.cell_count(); ++id) {
    const Cell& c = nl.cell(id);
    if (c.type == CellType::Output || !needed[c.out]) {
      continue;
    }
    text += "  " + net_label(nl, c.out) + " = " + std::string(cell_type_name(c.type)) + "(";
    for (std::size_t pin = 0; pin < c.fanin.size(); ++pin) {
      text += (pin ? ", " : "") + net_label(nl, c.fanin[pin]);
    }
    text += ")\n";
  }
  for (const std::string& line : observed) {
    text += line + "\n";
  }
  return text;
}

}  // namespace retscan
