#pragma once

#include <iosfwd>
#include <string>

#include "netlist/netlist.hpp"

namespace retscan {

/// Structural (gate-level) Verilog frontend — the import path for
/// externally-authored designs (ISCAS-style benchmark circuits, synthesis
/// netlists). The supported subset is exactly what a gate-level netlist
/// needs and nothing more:
///
///   * one `module ... endmodule` per file, non-ANSI header;
///   * scalar and vector `input` / `output` / `wire` declarations, vectors
///     bit-blasted at declaration into scalar nets `bus[i]`, LSB first;
///   * `assign` statements over a two-valued expression subset (bitwise
///     and ternary operators, equality, constant shifts, selects,
///     concatenation, sized literals), lowered to the same primitive gates
///     a structural description would instantiate;
///   * primitive gate instantiations `and/or/nand/nor/xor/xnor/not/buf`
///     (output first, 2+ inputs for the multi-input gates, Verilog
///     reduction semantics);
///   * techlib cell instantiations (NAND2X1, DFFX1, ... — see
///     netlist/techlib.hpp) with named pin connections; sequential cells
///     accept an optional .CK/.CLK pin, ignored in favour of the library's
///     implicit global clock;
///   * `1'b0` / `1'b1` constant connections.
///
/// Everything else (behavioural blocks, hierarchy, arithmetic, ...) is
/// rejected with a `file:line:` diagnostic — the full subset, expression
/// grammar, mapping table and error catalogue are documented in
/// docs/verilog-frontend.md.
/// A successfully parsed netlist is guaranteed structurally sound: every
/// read net is driven, every output port is driven, and the combinational
/// logic is acyclic — so it flows straight into lint_netlist(),
/// Netlist::compiled() and the SimEngine / CombinationalFrame stack.
///
/// All errors are thrown as retscan::Error with messages of the form
/// `<filename>:<line>: <what went wrong>`. Netlist::from_verilog reads a
/// file through this parser, with the path as the diagnostic filename.
Netlist read_verilog_text(const std::string& text,
                          const std::string& filename = "<string>");

/// Export a netlist as structural Verilog: ports from the netlist's
/// input/output cells, every other cell as a named-pin techlib
/// instantiation (netlist/techlib.hpp rows). Nets and instances without a
/// Verilog-safe name are emitted as n<id> / u<id>. The output reparses via
/// read_verilog_text into a simulation-equivalent netlist (round-trip
/// asserted by tests/test_verilog.cpp).
void write_verilog(std::ostream& os, const Netlist& netlist);

}  // namespace retscan
