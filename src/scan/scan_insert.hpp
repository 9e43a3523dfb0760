#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"

namespace retscan {

/// Which flip-flop variant replaces plain Dffs during insertion.
enum class ScanStyle {
  Scan,       ///< Sdff: scan-only, no retention (plain DFT)
  Retention,  ///< Rdff: scan + always-on balloon latch (power-gated design)
};

/// How flip-flops are distributed across chains. The paper's Section III
/// re-orders flops between chains to trade chain length against monitor
/// parallelism; the assignment policy also determines how physically
/// clustered burst errors map onto codewords (ablation A-3).
enum class ChainAssignment {
  Blocked,      ///< consecutive flops fill chain 0, then chain 1, ...
  Interleaved,  ///< flop i goes to chain i mod W (round-robin)
};

/// Options for insert_scan.
struct ScanInsertionOptions {
  std::size_t chain_count = 1;
  ScanStyle style = ScanStyle::Retention;
  ChainAssignment assignment = ChainAssignment::Blocked;
};

/// Result of scan insertion: chain membership and the control/port nets.
struct ScanChains {
  /// chains[c] lists flop cells in scan order: element 0 receives si{c},
  /// the last element drives so{c}.
  std::vector<std::vector<CellId>> chains;
  std::vector<NetId> si;  ///< scan-in port nets, one per chain
  std::vector<NetId> so;  ///< scan-out nets (also primary outputs)
  NetId se = kNullNet;      ///< scan-enable input net
  NetId retain = kNullNet;  ///< retention control net (Retention style only)

  std::size_t chain_count() const { return chains.size(); }
  /// Uniform chain length; throws if chains are unequal.
  std::size_t length() const;
  std::size_t flop_count() const;

  /// Chain index and position of a flop; throws if the flop is unknown.
  std::pair<std::size_t, std::size_t> locate(CellId flop) const;
  /// Flop at (chain, position).
  CellId at(std::size_t chain, std::size_t position) const;

  std::unordered_map<CellId, std::pair<std::size_t, std::size_t>> position_of;
};

/// Replace every plain Dff in `netlist` with a scan (Sdff) or retention
/// (Rdff) flop, stitch the requested number of equal-length chains (the
/// monitor generator needs them; 1040 flops over 80 chains gives l = 13
/// exactly), and create ports `se`, `si{c}`, `so{c}` (+ `retain` for
/// Retention style). Every pre-existing cell moves into kGatedDomain; the
/// new ports stay always-on. Throws unless the chain count divides the
/// flop count. Output nets of the original flops are preserved, so the
/// functional behaviour of the design is untouched when se=0 — the
/// property EDA scan insertion guarantees, and which the tests verify.
ScanChains insert_scan(Netlist& netlist, const ScanInsertionOptions& options);

/// Manufacturing-test chain concatenation (Fig. 5(b)). With W monitoring
/// chains and a test I/O width of T (W divisible by T), test group g chains
/// are {g, g+T, g+2T, ...}: external test input g feeds chain g, so of chain
/// c feeds si of chain c+T, and the last chain of the group drives external
/// test output g.
struct TestModeConfig {
  std::size_t test_width = 0;
  /// groups[g] = chain indices in concatenation order.
  std::vector<std::vector<std::size_t>> groups;

  /// Effective concatenated chain length given uniform monitoring length l.
  std::size_t concatenated_length(std::size_t chain_length) const;
};

TestModeConfig make_test_concatenation(std::size_t chain_count, std::size_t test_width);

}  // namespace retscan
