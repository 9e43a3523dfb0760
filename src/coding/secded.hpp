#pragma once

#include <string>

#include "coding/hamming.hpp"
#include "util/bitvec.hpp"

namespace retscan {

/// Outcome of one SEC-DED word decode.
enum class SecDedOutcome {
  Clean,
  Corrected,    ///< single data error located and flipped
  DoubleError,  ///< even-weight multi-error: detected, nothing touched
  MultiError,   ///< odd-weight >= 3 errors: detected, nothing touched
};

struct SecDedDecodeResult {
  SecDedOutcome outcome = SecDedOutcome::Clean;
  std::size_t corrected_data_bit = 0;  ///< valid when Corrected
  unsigned syndrome = 0;
  bool overall_mismatch = false;
};

/// Extended Hamming (SEC-DED) code: Hamming(2^r-1, 2^r-1-r) plus one
/// overall parity bit over the data word. The monitoring architecture
/// stores all r+1 check bits in the always-on parity memory, so only data
/// bits are exposed to rush-current upsets.
///
/// Why this matters here: the paper's experiment 2 shows clustered double
/// errors defeat plain SEC — worse, SEC *miscorrects* them, silently
/// adding a third wrong bit that only the CRC arm catches. SEC-DED
/// distinguishes single from double errors directly: singles are repaired,
/// doubles are flagged without touching the data, at the cost of one more
/// stored bit per word and one wider XOR tree per group. This is the
/// natural extension of the paper's scheme and is implemented both
/// behaviorally (here) and structurally (core/monitor_gen).
class SecDedCode {
 public:
  explicit SecDedCode(unsigned hamming_parity_bits);

  static SecDedCode s8_4() { return SecDedCode(3); }

  const HammingCode& base() const { return base_; }
  std::size_t k() const { return base_.k(); }
  /// Stored check bits per word: r Hamming + 1 overall.
  std::size_t check_bits() const { return base_.r() + 1; }
  std::string name() const;

  /// Check bits of a k-bit data word: Hamming parity then overall parity.
  BitVec encode(const BitVec& data) const;

  /// Decode against stored check bits; corrects only genuine single
  /// errors, never miscorrects doubles.
  SecDedDecodeResult decode(BitVec& data, const BitVec& stored) const;

 private:
  HammingCode base_;
};

}  // namespace retscan
