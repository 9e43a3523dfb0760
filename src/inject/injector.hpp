#pragma once

#include <cstddef>
#include <vector>

#include "scan/scan_insert.hpp"
#include "sim/packed_sim.hpp"
#include "sim/simulator.hpp"
#include "util/bitvec.hpp"
#include "util/lfsr.hpp"

namespace retscan {

/// A bit position in the scan fabric: chain index (the paper's "row") and
/// position within the chain (the "column").
struct ErrorLocation {
  std::size_t chain = 0;
  std::size_t position = 0;

  bool operator==(const ErrorLocation& other) const {
    return chain == other.chain && position == other.position;
  }
};

/// Behavioral model of the paper's error-injection circuit (Fig. 6): a row
/// injector and a column injector, both seeded from maximal-length LFSRs,
/// select which flip-flop(s) get flipped during a scan circulation. Single
/// errors (Fig. 7(a)) flip one (row, column); multiple errors (Fig. 7(b))
/// flip several, either scattered or clustered — the clustered variant
/// mirrors the paper's observation that rush-current burst errors land
/// close together.
class ErrorInjector {
 public:
  /// All 64 bits of `seed` contribute to the LFSR starting states (mixed
  /// through Rng::derive_stream), so per-shard campaign seeds — however
  /// they are derived — yield independent injection sequences.
  ErrorInjector(std::size_t chain_count, std::size_t chain_length, std::uint64_t seed = 1);

  std::size_t chain_count() const { return chain_count_; }
  std::size_t chain_length() const { return chain_length_; }

  /// One LFSR-selected location (Fig. 7(a)).
  ErrorLocation random_single();

  /// `count` distinct LFSR-selected locations scattered uniformly. Throws
  /// retscan::Error when the LFSR draws cycle before reaching `count`
  /// distinct locations (some geometries never reach every flop).
  std::vector<ErrorLocation> random_multiple(std::size_t count);

  /// `count` distinct locations clustered around a random centre within a
  /// +/- spread window in both chain and position (Fig. 7(b) burst shape).
  /// Throws retscan::Error when the draws cycle before reaching `count`
  /// distinct locations of the window.
  std::vector<ErrorLocation> clustered_burst(std::size_t count, std::size_t spread = 2);

  /// Flip the selected retention latches of a simulated design (the
  /// physical effect of wake-up rush current on the balloon latches).
  static void flip_retention(Simulator& sim, const ScanChains& chains,
                             const std::vector<ErrorLocation>& errors);

  /// Batch form: per_lane[b] is the upset set applied to lane b of a
  /// PackedSim — 64 independent corruption trials in one simulated design.
  static void flip_retention(PackedSim& sim, const ScanChains& chains,
                             const std::vector<std::vector<ErrorLocation>>& per_lane);

  /// Flip bits in per-chain data vectors (offline form used by the
  /// behavioral protectors).
  static void flip_chain_data(std::vector<BitVec>& chain_data,
                              const std::vector<ErrorLocation>& errors);

 private:
  std::size_t next_index(std::size_t bound);
  /// Count one draw that added no location; throws once the draws cycle.
  void check_not_cycling(std::uint64_t& fruitless, std::size_t count,
                         std::size_t chain_span, std::size_t pos_span) const;

  std::size_t chain_count_;
  std::size_t chain_length_;
  Lfsr row_lfsr_;
  Lfsr column_lfsr_;
};

}  // namespace retscan
