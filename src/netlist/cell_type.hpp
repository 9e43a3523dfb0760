#pragma once

#include <cstddef>
#include <string_view>

namespace retscan {

/// Gate-level cell vocabulary. The library deliberately restricts itself to
/// 2-input combinational gates plus flip-flop variants so that area and power
/// modelling maps one-to-one onto standard-cell rows of a 120nm-class library.
enum class CellType {
  // Constants and buffers.
  Const0,
  Const1,
  Buf,
  Not,
  // Two-input gates.
  And2,
  Or2,
  Xor2,
  Nand2,
  Nor2,
  Xnor2,
  // 2:1 multiplexer: fanin {sel, a, b}; out = sel ? b : a.
  Mux2,
  // Plain D flip-flop: fanin {D}.
  Dff,
  // Scan D flip-flop: fanin {D, SI, SE}; captures SE ? SI : D.
  Sdff,
  // Retention scan flip-flop (Fig. 1 of the paper): fanin {D, SI, SE,
  // RETAIN}. Master behaves like Sdff and lives in the cell's power domain;
  // the slave retention latch is always-on, loads from master while
  // RETAIN=1, and drives the master restore when the domain wakes with
  // RETAIN falling.
  Rdff,
  // Always-on transparent-low latch used for parity storage: fanin {D, EN}.
  LatchL,
  // Port pseudo-cells.
  Input,   // no fanin, output net is the primary input
  Output,  // fanin {net}, no output net
};

/// Number of fanin pins the cell type requires.
constexpr std::size_t cell_fanin_count(CellType type) {
  switch (type) {
    case CellType::Const0:
    case CellType::Const1:
    case CellType::Input:
      return 0;
    case CellType::Buf:
    case CellType::Not:
    case CellType::Dff:
    case CellType::Output:
      return 1;
    case CellType::And2:
    case CellType::Or2:
    case CellType::Xor2:
    case CellType::Nand2:
    case CellType::Nor2:
    case CellType::Xnor2:
    case CellType::LatchL:
      return 2;
    case CellType::Mux2:
    case CellType::Sdff:
      return 3;
    case CellType::Rdff:
      return 4;
  }
  return 0;
}

/// True for state-holding cells (flip-flops and latches).
constexpr bool cell_is_sequential(CellType type) {
  switch (type) {
    case CellType::Dff:
    case CellType::Sdff:
    case CellType::Rdff:
    case CellType::LatchL:
      return true;
    default:
      return false;
  }
}

/// True for any flavour of D flip-flop.
constexpr bool cell_is_flop(CellType type) {
  return type == CellType::Dff || type == CellType::Sdff || type == CellType::Rdff;
}

/// True if the cell produces an output net.
constexpr bool cell_has_output(CellType type) { return type != CellType::Output; }

/// Stable lowercase name for reports and diagnostics.
std::string_view cell_type_name(CellType type);

}  // namespace retscan
