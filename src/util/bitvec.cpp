#include "util/bitvec.hpp"

#include <bit>

#include "util/error.hpp"

namespace retscan {

namespace {
std::size_t words_for(std::size_t bits) {
  return (bits + BitVec::kWordBits - 1) / BitVec::kWordBits;
}
}  // namespace

BitVec::BitVec(std::size_t size, bool value) : size_(size) {
  words_.assign(words_for(size), value ? ~Word{0} : Word{0});
  clear_trailing();
}

BitVec BitVec::from_string(const std::string& bits) {
  BitVec result(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const char c = bits[i];
    RETSCAN_CHECK(c == '0' || c == '1', "BitVec::from_string: invalid character");
    result.set(i, c == '1');
  }
  return result;
}

void BitVec::check_index(std::size_t index) const {
  RETSCAN_CHECK(index < size_, "BitVec index out of range");
}

void BitVec::clear_trailing() {
  const std::size_t rem = size_ % kWordBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (Word{1} << rem) - 1;
  }
}

bool BitVec::get(std::size_t index) const {
  check_index(index);
  return (words_[index / kWordBits] >> (index % kWordBits)) & 1u;
}

void BitVec::set(std::size_t index, bool value) {
  check_index(index);
  const Word mask = Word{1} << (index % kWordBits);
  if (value) {
    words_[index / kWordBits] |= mask;
  } else {
    words_[index / kWordBits] &= ~mask;
  }
}

void BitVec::flip(std::size_t index) {
  check_index(index);
  words_[index / kWordBits] ^= Word{1} << (index % kWordBits);
}

void BitVec::fill(bool value) {
  for (Word& w : words_) {
    w = value ? ~Word{0} : Word{0};
  }
  clear_trailing();
}

void BitVec::resize(std::size_t size) {
  size_ = size;
  words_.resize(words_for(size), Word{0});
  clear_trailing();
}

void BitVec::push_back(bool value) {
  resize(size_ + 1);
  set(size_ - 1, value);
}

std::size_t BitVec::popcount() const {
  std::size_t total = 0;
  for (const Word w : words_) {
    total += static_cast<std::size_t>(std::popcount(w));
  }
  return total;
}

std::vector<std::size_t> BitVec::set_bits() const {
  std::vector<std::size_t> indices;
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    Word w = words_[wi];
    while (w != 0) {
      const int bit = std::countr_zero(w);
      indices.push_back(wi * kWordBits + static_cast<std::size_t>(bit));
      w &= w - 1;
    }
  }
  return indices;
}

BitVec BitVec::slice(std::size_t offset, std::size_t count) const {
  RETSCAN_CHECK(offset + count <= size_, "BitVec::slice out of range");
  BitVec result(count);
  for (std::size_t i = 0; i < count; ++i) {
    result.set(i, get(offset + i));
  }
  return result;
}

void BitVec::splice(std::size_t offset, const BitVec& other) {
  RETSCAN_CHECK(offset + other.size() <= size_, "BitVec::splice out of range");
  for (std::size_t i = 0; i < other.size(); ++i) {
    set(offset + i, other.get(i));
  }
}

BitVec& BitVec::operator^=(const BitVec& other) {
  RETSCAN_CHECK(size_ == other.size_, "BitVec size mismatch in ^=");
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] ^= other.words_[i];
  }
  return *this;
}

BitVec& BitVec::operator&=(const BitVec& other) {
  RETSCAN_CHECK(size_ == other.size_, "BitVec size mismatch in &=");
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= other.words_[i];
  }
  return *this;
}

BitVec& BitVec::operator|=(const BitVec& other) {
  RETSCAN_CHECK(size_ == other.size_, "BitVec size mismatch in |=");
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= other.words_[i];
  }
  return *this;
}

bool BitVec::operator==(const BitVec& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

std::size_t BitVec::hamming_distance(const BitVec& other) const {
  RETSCAN_CHECK(size_ == other.size_, "BitVec size mismatch in hamming_distance");
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    total += static_cast<std::size_t>(std::popcount(words_[i] ^ other.words_[i]));
  }
  return total;
}

std::string BitVec::to_string() const {
  std::string out(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (get(i)) {
      out[i] = '1';
    }
  }
  return out;
}

std::uint64_t BitVec::to_uint(std::size_t offset, std::size_t count) const {
  RETSCAN_CHECK(count <= 64, "BitVec::to_uint: count > 64");
  RETSCAN_CHECK(offset + count <= size_, "BitVec::to_uint out of range");
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < count; ++i) {
    value |= static_cast<std::uint64_t>(get(offset + i)) << i;
  }
  return value;
}

void BitVec::from_uint(std::size_t offset, std::size_t count, std::uint64_t value) {
  RETSCAN_CHECK(count <= 64, "BitVec::from_uint: count > 64");
  RETSCAN_CHECK(offset + count <= size_, "BitVec::from_uint out of range");
  if (count == 0) {
    return;
  }
  // At most two word writes: the field's low part at `bit` of its first
  // word and, when it straddles a boundary, the rest at the next word's LSB.
  const Word mask = count == kWordBits ? ~Word{0} : (Word{1} << count) - 1;
  value &= mask;
  const std::size_t word = offset / kWordBits;
  const std::size_t bit = offset % kWordBits;
  words_[word] = (words_[word] & ~(mask << bit)) | (value << bit);
  if (bit + count > kWordBits) {
    const Word spill = (Word{1} << (bit + count - kWordBits)) - 1;
    words_[word + 1] = (words_[word + 1] & ~spill) | (value >> (kWordBits - bit));
  }
}

std::vector<std::uint64_t> pack_lanes(const std::vector<BitVec>& rows) {
  RETSCAN_CHECK(rows.size() <= 64, "pack_lanes: more than 64 lanes");
  const std::size_t width = rows.empty() ? 0 : rows[0].size();
  std::vector<std::uint64_t> words(width, 0);
  for (std::size_t lane = 0; lane < rows.size(); ++lane) {
    RETSCAN_CHECK(rows[lane].size() == width, "pack_lanes: row size mismatch");
    const std::uint64_t bit = std::uint64_t{1} << lane;
    for (std::size_t i = 0; i < width; ++i) {
      if (rows[lane].get(i)) {
        words[i] |= bit;
      }
    }
  }
  return words;
}

std::vector<BitVec> unpack_lanes(const std::vector<std::uint64_t>& words,
                                 std::size_t lane_count) {
  RETSCAN_CHECK(lane_count <= 64, "unpack_lanes: more than 64 lanes");
  std::vector<BitVec> rows(lane_count, BitVec(words.size()));
  for (std::size_t lane = 0; lane < lane_count; ++lane) {
    const std::uint64_t bit = std::uint64_t{1} << lane;
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (words[i] & bit) {
        rows[lane].set(i, true);
      }
    }
  }
  return rows;
}

}  // namespace retscan
