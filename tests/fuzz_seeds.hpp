#pragma once

#include <cstddef>
#include <cstdlib>

namespace retscan {

/// Seed budget of the differential fuzz tests: RETSCAN_FUZZ_SEEDS when set
/// to a positive integer, otherwise 16. CI's differential-fuzz job runs 64.
inline std::size_t fuzz_seed_count() {
  if (const char* env = std::getenv("RETSCAN_FUZZ_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  return 16;
}

}  // namespace retscan
