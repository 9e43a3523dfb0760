#pragma once

/// retscan public surface — netlist layer.
///
/// Gate-level netlists, the cell/tech libraries, the case-study circuit
/// generators, the structural-Verilog frontend for externally-authored
/// designs (read and write: structural Verilog is the one netlist
/// interchange format), and lint. Everything needed to *author or import*
/// a design that the session/campaign layers then protect and exercise.

#include "circuits/fifo.hpp"          // FifoSpec, make_fifo, FifoModel
#include "circuits/generators.hpp"    // make_counter, make_lfsr, ...
#include "netlist/cell_type.hpp"      // CellType
#include "netlist/lint.hpp"           // lint_netlist
#include "netlist/netlist.hpp"        // Netlist, NetId, CellId
#include "netlist/techlib.hpp"        // TechLibrary, AreaReport, techlib_cell
#include "netlist/verilog_reader.hpp" // Netlist::from_verilog, write_verilog
