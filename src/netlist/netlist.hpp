#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/cell_type.hpp"

namespace retscan {

class CompiledNetlist;  // sim/compiled_netlist.hpp

using NetId = std::uint32_t;
using CellId = std::uint32_t;
using DomainId = std::uint16_t;

inline constexpr NetId kNullNet = std::numeric_limits<NetId>::max();
inline constexpr CellId kNullCell = std::numeric_limits<CellId>::max();

/// The always-on power domain; cells default to it.
inline constexpr DomainId kAlwaysOnDomain = 0;
/// The power-gated domain: scan insertion moves the original design into
/// it, and a sleep/wake cycle switches it off and on.
inline constexpr DomainId kGatedDomain = 1;

/// One instantiated cell. `fanin` holds the input nets in pin order as
/// documented on CellType; `out` is the output net (kNullNet for Output).
struct Cell {
  CellType type = CellType::Buf;
  std::vector<NetId> fanin;
  NetId out = kNullNet;
  DomainId domain = kAlwaysOnDomain;
  std::string name;  // optional instance name, may be empty
};

/// Gate-level netlist: a DAG of cells connected by single-driver nets.
///
/// Construction is additive; convenience factories (n_and, n_xor, ...) create
/// a gate and return its output net so that datapath logic reads like
/// expressions. The netlist validates single-driver and pin-count rules at
/// insertion time and offers structural queries (fanout lists, combinational
/// topological order) used by the simulator, scan inserter and ATPG.
class Netlist {
 public:
  explicit Netlist(std::string name = "top") : name_(std::move(name)) {}

  /// Import a structural (gate-level) Verilog file — primitive gates,
  /// techlib cell instantiations and DFF cells; see
  /// netlist/verilog_reader.hpp for the accepted subset and the
  /// `file:line:` diagnostic contract. The returned netlist is structurally
  /// sound (every read net driven, no combinational cycles) and flows
  /// straight into lint_netlist(), compiled() and the simulation stack.
  static Netlist from_verilog(const std::string& path);

  const std::string& name() const { return name_; }

  // --- nets -------------------------------------------------------------
  NetId add_net(const std::string& net_name = {});
  std::size_t net_count() const { return net_driver_.size(); }
  CellId driver(NetId net) const;
  const std::string& net_name(NetId net) const;
  void set_net_name(NetId net, const std::string& net_name);
  /// Net with the given name; throws if absent.
  NetId find_net(const std::string& net_name) const;
  bool has_net(const std::string& net_name) const;

  // --- cells ------------------------------------------------------------
  /// Add a cell; output net is created automatically (except Output cells).
  CellId add_cell(CellType type, std::vector<NetId> fanin, const std::string& cell_name = {});

  /// Add a cell bound to an existing, currently undriven output net
  /// (kNullNet for Output cells): the Verilog reader and controller
  /// synthesis declare a net before the cell that drives it. Port cells are
  /// registered like add_input / add_output.
  CellId add_cell_bound(CellType type, std::vector<NetId> fanin, NetId out,
                        const std::string& cell_name = {});
  std::size_t cell_count() const { return cells_.size(); }
  const Cell& cell(CellId id) const;
  NetId output_of(CellId id) const { return cell(id).out; }

  void set_domain(CellId id, DomainId domain);
  DomainId domain(CellId id) const { return cell(id).domain; }

  /// Rewire one fanin pin of an existing cell. Used by the scan inserter.
  void rewire_fanin(CellId id, std::size_t pin, NetId net);

  /// Redirect every fanin reference to `from` onto `to`, for cells with id
  /// below `limit` (pass cell_count() for all). Used when interposing
  /// generated logic (e.g. the hardware controller taking over control
  /// nets that scan insertion created as input ports).
  std::size_t replace_readers(NetId from, NetId to, CellId limit);

  /// Upgrade a plain Dff into a scan (Sdff) or retention (Rdff) flop,
  /// keeping its D pin and output net intact and appending the extra pins
  /// (SI, SE [, RETAIN]). This mirrors what DFT insertion does to a design.
  void convert_flop(CellId id, CellType new_type, const std::vector<NetId>& extra_fanin);

  // --- ports ------------------------------------------------------------
  /// Create a primary input; returns its net.
  NetId add_input(const std::string& port_name);
  /// Create a primary output sourced by `net`.
  CellId add_output(const std::string& port_name, NetId net);
  const std::vector<CellId>& inputs() const { return inputs_; }
  const std::vector<CellId>& outputs() const { return outputs_; }
  /// Primary-input net by port name; throws if absent.
  NetId input_net(const std::string& port_name) const;
  /// The net feeding the named primary output; throws if absent.
  NetId output_net(const std::string& port_name) const;

  // --- gate factories (return output net) --------------------------------
  NetId n_const(bool value);
  NetId n_buf(NetId a);
  NetId n_not(NetId a);
  NetId n_and(NetId a, NetId b);
  NetId n_or(NetId a, NetId b);
  NetId n_xor(NetId a, NetId b);
  NetId n_nand(NetId a, NetId b);
  NetId n_nor(NetId a, NetId b);
  NetId n_xnor(NetId a, NetId b);
  /// 2:1 mux, out = sel ? hi : lo.
  NetId n_mux(NetId sel, NetId lo, NetId hi);
  /// Wide reductions built from 2-input gate trees.
  NetId n_and_tree(const std::vector<NetId>& nets);
  NetId n_or_tree(const std::vector<NetId>& nets);
  NetId n_xor_tree(const std::vector<NetId>& nets);
  /// D flip-flop; returns Q.
  NetId n_dff(NetId d, const std::string& cell_name = {});

  // --- structure --------------------------------------------------------
  /// All flip-flop cells (Dff/Sdff/Rdff) in insertion order.
  std::vector<CellId> flops() const;
  /// Cells reading each net. Rebuilt lazily after mutation.
  const std::vector<std::vector<CellId>>& fanouts() const;
  /// Combinational cells in topological evaluation order. Throws on a
  /// combinational cycle (sequential cells cut the graph). Computed once and
  /// cached until the next structural mutation — SimEngine, the fault-sim
  /// frame and PODEM all walk it at construction, and per-shard construction
  /// in CampaignRunner multiplies that, so the sort must not re-run per call.
  const std::vector<CellId>& combinational_order() const;
  /// The compiled simulation core lowered from this netlist (see
  /// sim/compiled_netlist.hpp), built lazily, shared by every engine and
  /// fault frame on this netlist, and discarded on structural mutation. The
  /// instance is self-contained, so holders survive netlist moves/copies.
  /// Like fanouts(), the first call must not race with other threads; build
  /// an engine or frame on the owning thread before fanning out.
  std::shared_ptr<const CompiledNetlist> compiled() const;
  /// Count of cells per type.
  std::unordered_map<CellType, std::size_t> type_histogram() const;

 private:
  void invalidate_fanouts() {
    fanouts_valid_ = false;
    comb_order_valid_ = false;
    compiled_.reset();
  }

  std::string name_;
  std::vector<Cell> cells_;
  std::vector<CellId> net_driver_;
  std::vector<std::string> net_names_;
  std::unordered_map<std::string, NetId> net_by_name_;
  std::vector<CellId> inputs_;
  std::vector<CellId> outputs_;
  std::unordered_map<std::string, CellId> output_by_name_;
  mutable std::vector<std::vector<CellId>> fanouts_;
  mutable bool fanouts_valid_ = false;
  mutable std::vector<CellId> comb_order_;
  mutable bool comb_order_valid_ = false;
  mutable std::shared_ptr<const CompiledNetlist> compiled_;
};

}  // namespace retscan
