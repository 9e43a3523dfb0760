#include "inject/injector.hpp"

#include <algorithm>
#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace retscan {

namespace {
unsigned bits_for(std::size_t bound) {
  unsigned bits = 2;
  while ((std::size_t{1} << bits) < bound * 2 && bits < 32) {
    ++bits;
  }
  return bits;
}
}  // namespace

ErrorInjector::ErrorInjector(std::size_t chain_count, std::size_t chain_length,
                             std::uint64_t seed)
    : chain_count_(chain_count),
      chain_length_(chain_length),
      // Fold the full 64-bit seed through independent mix streams before
      // truncating to the LFSR state width: nearby seeds (per-shard streams
      // of a parallel campaign are dense integers post-mix) must land on
      // unrelated row/column sequences. `| 1` keeps the state nonzero.
      row_lfsr_(Lfsr::maximal(bits_for(chain_count),
                              (Rng::derive_stream(seed, 0x726f77) | 1) & 0xffff)),
      column_lfsr_(Lfsr::maximal(bits_for(chain_length),
                                 (Rng::derive_stream(seed, 0x636f6c) | 1) & 0xffff)) {
  RETSCAN_CHECK(chain_count_ > 0 && chain_length_ > 0, "ErrorInjector: empty fabric");
}

void ErrorInjector::check_not_cycling(std::uint64_t& fruitless, std::size_t count,
                                      std::size_t chain_span, std::size_t pos_span) const {
  // Each draw is a pure function of the (row, column) LFSR states, so once
  // more consecutive draws than there are state pairs have added no new
  // location, the states have cycled and no later draw will either.
  const std::uint64_t pairs = ((std::uint64_t{1} << row_lfsr_.width()) - 1) *
                              ((std::uint64_t{1} << column_lfsr_.width()) - 1);
  if (++fruitless > pairs) {
    throw Error("ErrorInjector: the LFSR draws cycle before reaching " +
                std::to_string(count) + " distinct locations in a " +
                std::to_string(chain_span) + "x" + std::to_string(pos_span) +
                " window of the " + std::to_string(chain_count_) + "x" +
                std::to_string(chain_length_) + " (chains x positions) fabric");
  }
}

std::size_t ErrorInjector::next_index(std::size_t bound) {
  // Draw from whichever LFSR matches the axis; rejection-sample so every
  // index is reachable (an LFSR state is never zero, so we subtract 1).
  Lfsr& source = bound == chain_count_ ? row_lfsr_ : column_lfsr_;
  for (;;) {
    source.step();
    const std::size_t value = static_cast<std::size_t>(source.state() - 1);
    if (value < bound) {
      return value;
    }
  }
}

ErrorLocation ErrorInjector::random_single() {
  return ErrorLocation{next_index(chain_count_), next_index(chain_length_)};
}

std::vector<ErrorLocation> ErrorInjector::random_multiple(std::size_t count) {
  RETSCAN_CHECK(count <= chain_count_ * chain_length_,
                "ErrorInjector: more errors than flops");
  std::vector<ErrorLocation> errors;
  errors.reserve(count);
  for (std::uint64_t fruitless = 0; errors.size() < count;) {
    const ErrorLocation loc = random_single();
    if (std::find(errors.begin(), errors.end(), loc) == errors.end()) {
      errors.push_back(loc);
      fruitless = 0;
    } else {
      check_not_cycling(fruitless, count, chain_count_, chain_length_);
    }
  }
  return errors;
}

std::vector<ErrorLocation> ErrorInjector::clustered_burst(std::size_t count,
                                                          std::size_t spread) {
  RETSCAN_CHECK(count <= chain_count_ * chain_length_,
                "ErrorInjector: more errors than flops");
  const ErrorLocation centre = random_single();
  const std::size_t chain_span = std::min(chain_count_, 2 * spread + 1);
  const std::size_t pos_span = std::min(chain_length_, 2 * spread + 1);
  RETSCAN_CHECK(count <= chain_span * pos_span,
                "ErrorInjector: burst too large for spread window");
  std::vector<ErrorLocation> errors;
  errors.reserve(count);
  for (std::uint64_t fruitless = 0; errors.size() < count;) {
    // Offsets drawn from the LFSRs, folded into the window around centre.
    const std::size_t dc = next_index(chain_count_) % chain_span;
    const std::size_t dp = next_index(chain_length_) % pos_span;
    ErrorLocation loc;
    loc.chain = (centre.chain + dc) % chain_count_;
    loc.position = (centre.position + dp) % chain_length_;
    if (std::find(errors.begin(), errors.end(), loc) == errors.end()) {
      errors.push_back(loc);
      fruitless = 0;
    } else {
      check_not_cycling(fruitless, count, chain_span, pos_span);
    }
  }
  return errors;
}

void ErrorInjector::flip_retention(Simulator& sim, const ScanChains& chains,
                                   const std::vector<ErrorLocation>& errors) {
  for (const ErrorLocation& loc : errors) {
    sim.flip_retention(chains.at(loc.chain, loc.position));
  }
}

void ErrorInjector::flip_retention(
    PackedSim& sim, const ScanChains& chains,
    const std::vector<std::vector<ErrorLocation>>& per_lane) {
  RETSCAN_CHECK(per_lane.size() <= PackedSim::lane_count(),
                "ErrorInjector: more lanes than the packed simulator has");
  for (std::size_t lane = 0; lane < per_lane.size(); ++lane) {
    const LaneWord mask = LaneWord{1} << lane;
    for (const ErrorLocation& loc : per_lane[lane]) {
      sim.flip_retention(chains.at(loc.chain, loc.position), mask);
    }
  }
}

void ErrorInjector::flip_chain_data(std::vector<BitVec>& chain_data,
                                    const std::vector<ErrorLocation>& errors) {
  for (const ErrorLocation& loc : errors) {
    RETSCAN_CHECK(loc.chain < chain_data.size() &&
                      loc.position < chain_data[loc.chain].size(),
                  "ErrorInjector: location outside fabric");
    chain_data[loc.chain].flip(loc.position);
  }
}

}  // namespace retscan
