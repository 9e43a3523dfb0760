#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "coding/protectors.hpp"
#include "core/protected_design.hpp"
#include "inject/injector.hpp"
#include "util/bitvec.hpp"

namespace retscan {

/// The protected fabric one Section IV sleep/wake sequence runs on:
/// `chain_count` scan chains of `chain_length` flops; Hamming words of
/// `hamming_r` parity bits across groups of k adjacent chains at each
/// position; one CRC-16-CCITT block over all chains, absorbing the scan-out
/// stream cycle-major. `kind` selects which of the two arms exist.
struct SequenceShape {
  CodeKind kind = CodeKind::HammingPlusCrc;
  unsigned hamming_r = 3;
  std::size_t chain_count = 0;
  std::size_t chain_length = 0;

  bool hamming() const { return kind != CodeKind::CrcDetect; }
  bool crc() const { return kind != CodeKind::HammingCorrect; }
};

/// What the Fig. 8 counters see of one sequence.
struct SequenceOutcome {
  bool detected = false;      ///< the first Hamming pass or the CRC check flagged
  bool recheck_clean = true;  ///< the recheck after correction was clean
  bool matches = true;        ///< the comparator read FIFO_A == FIFO_B

  bool operator==(const SequenceOutcome&) const = default;
};

/// One sequence evaluated on data, with the behavioral protectors: encode
/// the chains, flip the upsets, decode and correct twice, check the CRC
/// twice, compare with the untouched copy. This is the oracle the syndrome
/// evaluation is checked against (FastTestbench::run_reference).
class DataFullEvaluator {
 public:
  explicit DataFullEvaluator(const SequenceShape& shape);

  /// `chains` is what both FIFOs hold before sleep; `errors` is the upset
  /// set, XOR-applied (a repeated location cancels).
  SequenceOutcome evaluate(std::vector<BitVec> chains,
                           const std::vector<ErrorLocation>& errors);

 private:
  SequenceShape shape_;
  HammingChainProtector hamming_;
  CrcChainProtector crc_;
};

/// The same sequence evaluated from its error pattern alone. Both codes
/// are linear, so the data drops out of every outcome:
///   * a Hamming word's syndrome is the XOR of data_position(j) over its
///     flipped bits j, and a correction toggles one more bit;
///   * with a zero initial state, CRC(data ^ e) = CRC(data) ^ CRC(e), so
///     the check fails iff the XOR of per-bit unit signatures over the
///     residual error is nonzero;
///   * the comparator matches iff no residual error is left.
/// The tables are built once per shape; evaluate() touches only the words
/// the error set reaches.
class SyndromeEvaluator {
 public:
  explicit SyndromeEvaluator(const SequenceShape& shape);

  const SequenceShape& shape() const { return shape_; }

  /// Equal to DataFullEvaluator::evaluate for any data and the same errors.
  SequenceOutcome evaluate(const std::vector<ErrorLocation>& errors);

 private:
  void toggle(const ErrorLocation& bit);
  /// One decode-and-correct pass over the residual; true if any word's
  /// syndrome was nonzero.
  bool hamming_pass();
  std::uint16_t crc_signature() const;

  SequenceShape shape_;
  std::size_t k_;
  /// Hamming codeword position of data bit j (= syndrome of its flip).
  std::vector<unsigned> position_of_bit_;
  /// Data bit a syndrome names, or k_ for a parity position.
  std::vector<std::size_t> bit_of_syndrome_;
  /// CRC-16 signature of a lone 1 at (chain, position): [chain * L + position].
  std::vector<std::uint16_t> crc_unit_;
  /// Bits where FIFO_A currently differs from FIFO_B, each listed once.
  std::vector<ErrorLocation> residual_;
  std::vector<ErrorLocation> corrections_;
};

}  // namespace retscan
