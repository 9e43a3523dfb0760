#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace retscan {

/// One machine word of simulation lanes. Bit b of a LaneWord holds the value
/// of a net/state slot for lane b, so every bitwise gate operation evaluates
/// 64 independent pattern/seed slots at once — the classic word-level
/// bit-parallel technique of industrial fault simulators.
using LaneWord = std::uint64_t;

inline constexpr std::size_t kLaneCount = 64;
inline constexpr LaneWord kAllLanes = ~LaneWord{0};

/// Replicate a scalar boolean across all lanes.
constexpr LaneWord lane_broadcast(bool value) { return value ? kAllLanes : LaneWord{0}; }

/// Mask selecting lanes [0, count).
constexpr LaneWord lane_mask(std::size_t count) {
  return count >= kLaneCount ? kAllLanes : (LaneWord{1} << count) - 1;
}

/// Lane-wise 2:1 select: sel ? b : a.
constexpr LaneWord lane_mux(LaneWord sel, LaneWord a, LaneWord b) {
  return (sel & b) | (~sel & a);
}

/// Number of LaneWords ganged into one LaneBlock: a 256-lane block, the
/// width of one AVX2 register.
inline constexpr std::size_t kLaneWords = 4;

/// Lanes carried by one LaneBlock (256).
inline constexpr std::size_t kLaneBlockBits = kLaneWords * kLaneCount;

/// A block of kLaneWords adjacent lane words: the unit the block sweep
/// kernels move per net. Value storage is lane-major — within a slot's block
/// the words are contiguous, so one sweep walks cache lines sequentially.
/// The 32-byte alignment lets a -mavx2 build move a block as one aligned
/// register.
struct alignas(32) LaneBlock {
  LaneWord w[kLaneWords];
};

// Fixed-trip-count loops: the compiler vectorizes them to the target ISA
// (one AVX2 instruction per operator under -mavx2).

inline LaneBlock operator&(const LaneBlock& a, const LaneBlock& b) {
  LaneBlock out;
  for (std::size_t i = 0; i < kLaneWords; ++i) out.w[i] = a.w[i] & b.w[i];
  return out;
}

inline LaneBlock operator|(const LaneBlock& a, const LaneBlock& b) {
  LaneBlock out;
  for (std::size_t i = 0; i < kLaneWords; ++i) out.w[i] = a.w[i] | b.w[i];
  return out;
}

inline LaneBlock operator^(const LaneBlock& a, const LaneBlock& b) {
  LaneBlock out;
  for (std::size_t i = 0; i < kLaneWords; ++i) out.w[i] = a.w[i] ^ b.w[i];
  return out;
}

inline LaneBlock operator~(const LaneBlock& a) {
  LaneBlock out;
  for (std::size_t i = 0; i < kLaneWords; ++i) out.w[i] = ~a.w[i];
  return out;
}

/// Lane-wise 2:1 select: sel ? b : a.
inline LaneBlock lane_mux(const LaneBlock& sel, const LaneBlock& a, const LaneBlock& b) {
  LaneBlock out;
  for (std::size_t i = 0; i < kLaneWords; ++i) {
    out.w[i] = (sel.w[i] & b.w[i]) | (~sel.w[i] & a.w[i]);
  }
  return out;
}

/// Replicate a scalar boolean across all kLaneBlockBits lanes.
inline LaneBlock block_broadcast(bool value) {
  LaneBlock out;
  for (std::size_t i = 0; i < kLaneWords; ++i) out.w[i] = lane_broadcast(value);
  return out;
}

/// Mask selecting block lanes [0, count). count may be any value up to
/// kLaneBlockBits; partial last blocks use this to silence unused lanes.
inline LaneBlock block_lane_mask(std::size_t count) {
  LaneBlock out;
  for (std::size_t i = 0; i < kLaneWords; ++i) {
    const std::size_t base = i * kLaneCount;
    out.w[i] = count <= base ? LaneWord{0} : lane_mask(count - base);
  }
  return out;
}

/// True if any lane in the block is set.
inline bool block_any(const LaneBlock& b) {
  LaneWord acc = 0;
  for (std::size_t i = 0; i < kLaneWords; ++i) acc |= b.w[i];
  return acc != 0;
}

/// Index of the lowest set lane, or kLaneBlockBits if the block is empty.
/// Fault simulation uses this to recover the globally-first detecting
/// pattern, which is batch-width invariant by construction.
inline std::size_t block_first_lane(const LaneBlock& b) {
  for (std::size_t i = 0; i < kLaneWords; ++i) {
    if (b.w[i] != 0) {
      return i * kLaneCount + static_cast<std::size_t>(std::countr_zero(b.w[i]));
    }
  }
  return kLaneBlockBits;
}

inline bool operator==(const LaneBlock& a, const LaneBlock& b) {
  for (std::size_t i = 0; i < kLaneWords; ++i) {
    if (a.w[i] != b.w[i]) return false;
  }
  return true;
}

inline bool operator!=(const LaneBlock& a, const LaneBlock& b) { return !(a == b); }

}  // namespace retscan
