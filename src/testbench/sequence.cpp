#include "testbench/sequence.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace retscan {

DataFullEvaluator::DataFullEvaluator(const SequenceShape& shape)
    : shape_(shape),
      hamming_(HammingCode(shape.hamming_r), shape.chain_count, shape.chain_length),
      crc_(Crc16::ccitt(), shape.chain_count, shape.chain_length, shape.chain_count) {}

SequenceOutcome DataFullEvaluator::evaluate(std::vector<BitVec> chains,
                                            const std::vector<ErrorLocation>& errors) {
  const std::vector<BitVec> golden = chains;  // FIFO_B

  // Stage 3: sleep entry — encode.
  if (shape_.hamming()) {
    hamming_.encode(chains);
  }
  if (shape_.crc()) {
    crc_.encode(chains);
  }

  // Sleep: inject upsets into the retained state.
  ErrorInjector::flip_chain_data(chains, errors);

  // Stage 4: wake — decode, correct, recheck.
  SequenceOutcome outcome;
  if (shape_.hamming()) {
    outcome.detected = hamming_.decode_and_correct(chains).any_error();
    outcome.recheck_clean = !hamming_.decode_and_correct(chains).any_error();
  }
  if (shape_.crc()) {
    outcome.detected = outcome.detected || crc_.check(chains).any_error();
    outcome.recheck_clean = outcome.recheck_clean && !crc_.check(chains).any_error();
  }
  if (!shape_.hamming() && outcome.detected) {
    outcome.recheck_clean = false;  // detection-only: nothing was repaired
  }

  // Stage 5: Comparator reads FIFO_A and FIFO_B.
  outcome.matches = chains == golden;
  return outcome;
}

SyndromeEvaluator::SyndromeEvaluator(const SequenceShape& shape) : shape_(shape) {
  // The shape checks of the protectors DataFullEvaluator builds; the
  // Hamming one applies to every kind, as it does there.
  const HammingCode code(shape_.hamming_r);
  k_ = code.k();
  RETSCAN_CHECK(shape_.chain_count > 0 && shape_.chain_length > 0,
                "SyndromeEvaluator: empty configuration");
  RETSCAN_CHECK(shape_.chain_count % k_ == 0,
                "SyndromeEvaluator: chain count must be a multiple of k");

  bit_of_syndrome_.assign(code.n() + 1, k_);
  for (std::size_t j = 0; j < k_; ++j) {
    position_of_bit_.push_back(code.data_position(j));
    bit_of_syndrome_[position_of_bit_.back()] = j;
  }

  // At shift cycle t the chains emit position L-1-t in chain order, so
  // (chain, position) is bit (L-1-position)*C + chain of an N = C*L bit
  // stream. A lone 1 at stream bit i leaves the register at the state
  // reached by absorbing 1 and then N-1-i zeros; walking i downward, each
  // signature is the previous one shifted by one more zero.
  const std::size_t chains = shape_.chain_count;
  const std::size_t length = shape_.chain_length;
  crc_unit_.resize(chains * length);
  Crc16 reg = Crc16::ccitt();
  reg.reset();
  reg.shift_bit(true);
  for (std::size_t i = chains * length; i-- > 0;) {
    const std::size_t position = length - 1 - i / chains;
    crc_unit_[(i % chains) * length + position] = reg.value();
    reg.shift_bit(false);
  }
}

void SyndromeEvaluator::toggle(const ErrorLocation& bit) {
  const auto it = std::find(residual_.begin(), residual_.end(), bit);
  if (it == residual_.end()) {
    residual_.push_back(bit);
  } else {
    *it = residual_.back();
    residual_.pop_back();
  }
}

bool SyndromeEvaluator::hamming_pass() {
  // Only words the residual reaches can have a nonzero syndrome. Each word
  // is decoded once, at its first residual bit, and every correction lands
  // in its own word, so applying them after the scan keeps the pass exact.
  bool flagged = false;
  corrections_.clear();
  for (std::size_t i = 0; i < residual_.size(); ++i) {
    const std::size_t group = residual_[i].chain / k_;
    const std::size_t position = residual_[i].position;
    const auto same_word = [&](const ErrorLocation& bit) {
      return bit.position == position && bit.chain / k_ == group;
    };
    if (std::any_of(residual_.begin(), residual_.begin() + i, same_word)) {
      continue;
    }
    unsigned syndrome = 0;
    for (std::size_t j = i; j < residual_.size(); ++j) {
      if (same_word(residual_[j])) {
        syndrome ^= position_of_bit_[residual_[j].chain % k_];
      }
    }
    if (syndrome == 0) {
      continue;
    }
    flagged = true;
    const std::size_t bit = bit_of_syndrome_[syndrome];
    if (bit < k_) {
      corrections_.push_back(ErrorLocation{group * k_ + bit, position});
    }
  }
  for (const ErrorLocation& bit : corrections_) {
    toggle(bit);
  }
  return flagged;
}

std::uint16_t SyndromeEvaluator::crc_signature() const {
  std::uint16_t signature = 0;
  for (const ErrorLocation& bit : residual_) {
    signature ^= crc_unit_[bit.chain * shape_.chain_length + bit.position];
  }
  return signature;
}

SequenceOutcome SyndromeEvaluator::evaluate(const std::vector<ErrorLocation>& errors) {
  residual_.clear();
  for (const ErrorLocation& bit : errors) {
    RETSCAN_CHECK(bit.chain < shape_.chain_count && bit.position < shape_.chain_length,
                  "ErrorInjector: location outside fabric");
    toggle(bit);
  }

  SequenceOutcome outcome;
  if (shape_.hamming()) {
    // Both passes correct; the CRC reads what the second one leaves.
    outcome.detected = hamming_pass();
    outcome.recheck_clean = !hamming_pass();
  }
  if (shape_.crc()) {
    // The check and its recheck read the same, unchanged chains.
    const bool mismatch = crc_signature() != 0;
    outcome.detected = outcome.detected || mismatch;
    outcome.recheck_clean = outcome.recheck_clean && !mismatch;
  }
  if (!shape_.hamming() && outcome.detected) {
    outcome.recheck_clean = false;  // detection-only: nothing was repaired
  }
  outcome.matches = residual_.empty();
  return outcome;
}

}  // namespace retscan
