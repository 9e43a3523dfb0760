#pragma once

#include <cstddef>
#include <vector>

#include <optional>

#include "coding/crc.hpp"
#include "coding/hamming.hpp"
#include "coding/secded.hpp"
#include "util/bitvec.hpp"

namespace retscan {

/// Behavioral model of the paper's Hamming state-monitoring + correction
/// blocks over a W-chain scan configuration (Fig. 2 / Fig. 5(a)).
///
/// Geometry: W chains of length l, grouped into W/k monitor groups of k
/// adjacent chains. At shift cycle t each group sees the k-bit word formed
/// by its chains' scan-out bits; encoding stores the r parity bits of that
/// word in the group's always-on parity memory (depth l). Decoding
/// recomputes parity, and a nonzero syndrome flips the named bit in the
/// stream before it re-enters the scan-in ports.
class HammingChainProtector {
 public:
  /// `extended` selects SEC-DED operation: one extra stored parity bit per
  /// word, doubles detected instead of miscorrected.
  HammingChainProtector(HammingCode code, std::size_t chain_count, std::size_t chain_length,
                        bool extended = false);

  const HammingCode& code() const { return code_; }
  bool extended() const { return extended_.has_value(); }
  std::size_t chain_count() const { return chain_count_; }
  std::size_t chain_length() const { return chain_length_; }
  std::size_t group_count() const { return group_count_; }
  /// Always-on parity storage in bits: groups * l * (r [+1 if SEC-DED]).
  std::size_t parity_storage_bits() const;

  /// Record parity of the given chain contents (data[c][p], position p as
  /// defined by ScanChains: so emits position l-1 first).
  void encode(const std::vector<BitVec>& chain_data);

  struct DecodeStats {
    std::size_t words_checked = 0;
    std::size_t words_with_error = 0;   ///< nonzero syndrome / mismatch
    std::size_t bits_corrected = 0;     ///< data flips applied
    std::size_t parity_syndromes = 0;   ///< syndrome aliased a parity position
    std::size_t double_errors = 0;      ///< SEC-DED only: flagged doubles
    bool any_error() const { return words_with_error > 0; }
  };

  /// Check chain contents against stored parity and apply single-bit
  /// corrections in place. Multi-bit words miscorrect, exactly like the
  /// hardware (see HammingCode).
  DecodeStats decode_and_correct(std::vector<BitVec>& chain_data) const;

 private:
  BitVec word_at(const std::vector<BitVec>& chain_data, std::size_t group,
                 std::size_t cycle) const;

  HammingCode code_;
  std::optional<SecDedCode> extended_;
  std::size_t chain_count_;
  std::size_t chain_length_;
  std::size_t group_count_;
  /// parity_[group][cycle] = stored check bits (r, or r+1 for SEC-DED).
  std::vector<std::vector<BitVec>> parity_;
  bool encoded_ = false;
};

/// Behavioral model of the CRC-16 state-monitoring blocks: detection only.
/// Each group of `group_width` chains owns one 16-bit signature register;
/// during a pass the group absorbs its chains' scan-out bits cycle-major
/// (cycle 0 chains in order, cycle 1, ...). Mismatch between the stored and
/// recomputed signatures flags the group.
class CrcChainProtector {
 public:
  CrcChainProtector(Crc16 crc, std::size_t chain_count, std::size_t chain_length,
                    std::size_t group_width);

  const Crc16& crc() const { return crc_; }
  std::size_t group_count() const { return group_count_; }
  /// Always-on signature storage in bits: groups * 16.
  std::size_t signature_storage_bits() const { return group_count_ * 16; }

  void encode(const std::vector<BitVec>& chain_data);

  struct CheckStats {
    std::size_t groups_checked = 0;
    std::size_t groups_mismatched = 0;
    bool any_error() const { return groups_mismatched > 0; }
  };

  CheckStats check(const std::vector<BitVec>& chain_data) const;

 private:
  std::uint16_t signature_of(const std::vector<BitVec>& chain_data, std::size_t group) const;

  Crc16 crc_;
  std::size_t chain_count_;
  std::size_t chain_length_;
  std::size_t group_width_;
  std::size_t group_count_;
  std::vector<std::uint16_t> signatures_;
  bool encoded_ = false;
};

/// Flat-block Hamming protection of an N-bit state (the Fig. 10 experiment:
/// 1000 flip-flops split into ceil(N/k) words, parity held safely aside).
/// Returns per-sequence correction statistics.
class BlockHammingCodec {
 public:
  BlockHammingCodec(HammingCode code, std::size_t state_bits);

  std::size_t word_count() const { return word_count_; }

  /// Parity of all words of `state`.
  std::vector<BitVec> encode(const BitVec& state) const;

  struct RepairStats {
    std::size_t words_with_error = 0;
    std::size_t bits_corrected = 0;
    std::size_t residual_wrong_bits = 0;  ///< vs the reference state
    bool fully_corrected = false;
  };

  /// Decode/correct `state` in place against `parity`; `reference` is the
  /// pre-corruption state used to score the outcome.
  RepairStats repair(BitVec& state, const std::vector<BitVec>& parity,
                     const BitVec& reference) const;

 private:
  HammingCode code_;
  std::size_t state_bits_;
  std::size_t word_count_;
};

}  // namespace retscan
