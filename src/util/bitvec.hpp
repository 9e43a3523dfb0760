#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace retscan {

/// Dynamically sized bit vector with word-level storage.
///
/// BitVec is the common currency for register states, scan-chain contents,
/// codewords and parity streams throughout the library. Bit 0 is the least
/// significant bit of word 0. All indexed accessors bounds-check and throw
/// retscan::Error on violation.
class BitVec {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  BitVec() = default;
  /// Construct with `size` bits, all initialized to `value`.
  explicit BitVec(std::size_t size, bool value = false);

  /// Parse from a string of '0'/'1' characters; index 0 is the *leftmost*
  /// character so that "1011" reads naturally as bit sequence 1,0,1,1.
  static BitVec from_string(const std::string& bits);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t index) const;
  void set(std::size_t index, bool value);
  void flip(std::size_t index);

  /// Set all bits to `value` without changing size.
  void fill(bool value);
  /// Resize, new bits (if any) initialized to false.
  void resize(std::size_t size);
  /// Append a single bit at the end.
  void push_back(bool value);

  /// Number of set bits.
  std::size_t popcount() const;
  /// True if any bit is set.
  bool any() const { return popcount() > 0; }
  /// XOR-reduce all bits (overall parity).
  bool parity() const { return (popcount() & 1u) != 0; }

  /// Indices of all set bits, ascending.
  std::vector<std::size_t> set_bits() const;

  /// Extract `count` bits starting at `offset` as a new vector.
  BitVec slice(std::size_t offset, std::size_t count) const;
  /// Overwrite bits [offset, offset+other.size()) with `other`.
  void splice(std::size_t offset, const BitVec& other);

  /// Bitwise operators require equal sizes.
  BitVec& operator^=(const BitVec& other);
  BitVec& operator&=(const BitVec& other);
  BitVec& operator|=(const BitVec& other);
  friend BitVec operator^(BitVec lhs, const BitVec& rhs) { return lhs ^= rhs; }
  friend BitVec operator&(BitVec lhs, const BitVec& rhs) { return lhs &= rhs; }
  friend BitVec operator|(BitVec lhs, const BitVec& rhs) { return lhs |= rhs; }

  bool operator==(const BitVec& other) const;
  bool operator!=(const BitVec& other) const { return !(*this == other); }

  /// Number of positions at which two equal-sized vectors differ.
  std::size_t hamming_distance(const BitVec& other) const;

  /// Render as '0'/'1' string, index 0 leftmost (inverse of from_string).
  std::string to_string() const;

  /// Interpret bits [offset, offset+count) as an unsigned integer,
  /// bit `offset` being the LSB. count must be <= 64.
  std::uint64_t to_uint(std::size_t offset, std::size_t count) const;
  /// Store the low `count` bits of `value` at [offset, offset+count).
  void from_uint(std::size_t offset, std::size_t count, std::uint64_t value);

  /// Raw word storage (low word first); trailing bits beyond size() are zero.
  const std::vector<Word>& words() const { return words_; }

 private:
  void check_index(std::size_t index) const;
  void clear_trailing();

  std::vector<Word> words_;
  std::size_t size_ = 0;
};

/// Lane transposition helpers for the bit-parallel simulation engine.
///
/// A "lane word" holds bit `b` of 64 independent simulation slots: lane b of
/// word i is bit i of slot b's BitVec. pack_lanes transposes up to 64
/// equal-sized BitVecs (one per lane) into one lane word per bit position;
/// unpack_lanes is the inverse. These are the conversion points between the
/// per-pattern BitVec world (ATPG, scan I/O, codecs) and the word-parallel
/// engine.
std::vector<std::uint64_t> pack_lanes(const std::vector<BitVec>& rows);
std::vector<BitVec> unpack_lanes(const std::vector<std::uint64_t>& words,
                                 std::size_t lane_count);

}  // namespace retscan
