#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace retscan {

/// FNV-1a 64 accumulator — the repo-wide content-fingerprint primitive
/// (campaign fingerprints, netlist structure fingerprints, session-cache
/// keys). Every field is hashed through a fixed-width integer
/// representation so a fingerprint is stable across platforms with the same
/// integer model; it is an identity check, not a cryptographic hash.
struct Fnv1a {
  static constexpr std::uint64_t kOffset = 1469598103934665603ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  std::uint64_t hash = kOffset;

  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (byte * 8)) & 0xFF;
      hash *= kPrime;
    }
  }
  void add_double(double value) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    add(bits);
  }
  void add_text(std::string_view text) {
    add(text.size());
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= kPrime;
    }
  }
  void add_bytes(const void* data, std::size_t size) {
    add(size);
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= kPrime;
    }
  }
};

}  // namespace retscan
