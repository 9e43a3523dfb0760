#include "util/bitvec.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace retscan {
namespace {

TEST(BitVec, DefaultIsEmpty) {
  BitVec v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, ConstructFilled) {
  BitVec ones(130, true);
  EXPECT_EQ(ones.size(), 130u);
  EXPECT_EQ(ones.popcount(), 130u);
  BitVec zeros(130, false);
  EXPECT_EQ(zeros.popcount(), 0u);
}

TEST(BitVec, SetGetFlip) {
  BitVec v(100);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(99, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(99));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 4u);
  v.flip(63);
  EXPECT_FALSE(v.get(63));
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVec, BoundsChecked) {
  BitVec v(8);
  EXPECT_THROW(v.get(8), Error);
  EXPECT_THROW(v.set(8, true), Error);
  EXPECT_THROW(v.flip(100), Error);
}

TEST(BitVec, FromToStringRoundTrip) {
  const std::string s = "1011001110001";
  const BitVec v = BitVec::from_string(s);
  EXPECT_EQ(v.size(), s.size());
  EXPECT_EQ(v.to_string(), s);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
}

TEST(BitVec, FromStringRejectsGarbage) {
  EXPECT_THROW(BitVec::from_string("10x1"), Error);
}

TEST(BitVec, PushBackAndResize) {
  BitVec v;
  for (int i = 0; i < 70; ++i) {
    v.push_back(i % 3 == 0);
  }
  EXPECT_EQ(v.size(), 70u);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(69));
  EXPECT_FALSE(v.get(70 - 3 + 1));
  v.resize(3);
  EXPECT_EQ(v.size(), 3u);
  v.resize(80);
  EXPECT_FALSE(v.get(79));
  // Bits exposed by growth must be zero even though storage was reused.
  for (std::size_t i = 3; i < 80; ++i) {
    EXPECT_FALSE(v.get(i)) << i;
  }
}

TEST(BitVec, XorAndOrOperators) {
  const BitVec a = BitVec::from_string("1100");
  const BitVec b = BitVec::from_string("1010");
  EXPECT_EQ((a ^ b).to_string(), "0110");
  EXPECT_EQ((a & b).to_string(), "1000");
  EXPECT_EQ((a | b).to_string(), "1110");
}

TEST(BitVec, OperatorsRejectSizeMismatch) {
  BitVec a(4);
  BitVec b(5);
  EXPECT_THROW(a ^= b, Error);
  EXPECT_THROW(a &= b, Error);
  EXPECT_THROW(a |= b, Error);
  EXPECT_THROW(a.hamming_distance(b), Error);
}

TEST(BitVec, SliceAndSplice) {
  const BitVec v = BitVec::from_string("110100101");
  EXPECT_EQ(v.slice(2, 4).to_string(), "0100");
  BitVec w(9);
  w.splice(2, BitVec::from_string("1111"));
  EXPECT_EQ(w.to_string(), "001111000");
  EXPECT_THROW(v.slice(7, 4), Error);
}

TEST(BitVec, HammingDistance) {
  const BitVec a = BitVec::from_string("101010");
  const BitVec b = BitVec::from_string("100110");
  EXPECT_EQ(a.hamming_distance(b), 2u);
  EXPECT_EQ(a.hamming_distance(a), 0u);
}

TEST(BitVec, SetBitsIndices) {
  BitVec v(200);
  v.set(5, true);
  v.set(64, true);
  v.set(199, true);
  const auto bits = v.set_bits();
  ASSERT_EQ(bits.size(), 3u);
  EXPECT_EQ(bits[0], 5u);
  EXPECT_EQ(bits[1], 64u);
  EXPECT_EQ(bits[2], 199u);
}

TEST(BitVec, ToUintFromUint) {
  BitVec v(70);
  v.from_uint(3, 16, 0xBEEF);
  EXPECT_EQ(v.to_uint(3, 16), 0xBEEFu);
  v.from_uint(60, 8, 0xA5);
  EXPECT_EQ(v.to_uint(60, 8), 0xA5u);
  EXPECT_THROW(v.to_uint(60, 20), Error);
}

TEST(BitVec, FromUintMatchesBitwiseReference) {
  // Every field [offset, offset + count) with offset 0..130 and count 0..64
  // of a random 200-bit vector: straddled word boundaries, whole 64-bit
  // fields at unaligned offsets, value bits above `count` (which must be
  // ignored) and the bits around the field (which must not move).
  Rng rng(11);
  const BitVec before = rng.next_bits(200);
  for (std::size_t offset = 0; offset <= 130; ++offset) {
    for (std::size_t count = 0; count <= 64; ++count) {
      const std::uint64_t value = rng.next_u64();
      BitVec reference = before;
      for (std::size_t i = 0; i < count; ++i) {
        reference.set(offset + i, ((value >> i) & 1) != 0);
      }
      BitVec written = before;
      written.from_uint(offset, count, value);
      ASSERT_EQ(written.words(), reference.words())
          << "offset " << offset << " count " << count;
      const std::uint64_t field = count == 64 ? value : value & ((std::uint64_t{1} << count) - 1);
      ASSERT_EQ(written.to_uint(offset, count), field);
    }
  }
  BitVec tail(130);
  EXPECT_THROW(tail.from_uint(67, 64, 0), Error);
  EXPECT_THROW(tail.from_uint(0, 65, 0), Error);
}

TEST(BitVec, ParityMatchesPopcount) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const BitVec v = rng.next_bits(97);
    EXPECT_EQ(v.parity(), v.popcount() % 2 == 1);
  }
}

TEST(BitVec, FillPreservesSizeInvariant) {
  BitVec v(65);
  v.fill(true);
  EXPECT_EQ(v.popcount(), 65u);
  v.resize(70);
  // Trailing bits beyond the old size must have been masked off.
  for (std::size_t i = 65; i < 70; ++i) {
    EXPECT_FALSE(v.get(i));
  }
}

}  // namespace
}  // namespace retscan
