#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>

namespace retscan {

/// Parsed `RETSCAN_*` campaign environment overrides — the one place they
/// are interpreted. Both knobs parse strictly: values must be plain
/// positive decimal integers (threads additionally capped at 4096);
/// anything else (garbage, 0, negative, trailing junk, overflow) warns on
/// stderr and is treated as unset, never silently accepted.
struct RuntimeConfig {
  /// Resolved worker count: the RETSCAN_THREADS override when set and
  /// valid, else hardware_concurrency() (else 1). Always >= 1 — campaigns
  /// default to using every core now that the persistent-workspace runner
  /// profiles profitable; RETSCAN_THREADS=1 is the explicit serial opt-out.
  unsigned threads = 1;
  /// RETSCAN_SEQUENCES campaign-budget override; nullopt means
  /// unset/invalid (use the caller's default).
  std::optional<std::size_t> sequences;
};

/// The parsed environment, cached after the first call (every default-sized
/// ThreadPool consults it). Tests and embedding applications that mutate
/// RETSCAN_* afterwards must call runtime_config_refresh() to see the
/// change.
RuntimeConfig runtime_config();

/// Re-parse the environment, replace the cache, and return the result.
RuntimeConfig runtime_config_refresh();

/// Resolved worker count: RETSCAN_THREADS override, else
/// hardware_concurrency(), else 1. This is what ThreadPool(0) uses.
unsigned runtime_threads();

/// Campaign sequence budget: RETSCAN_SEQUENCES override, else
/// `default_count`. The paper runs 100M FPGA sequences; benches default to
/// counts that finish in seconds and let this env knob scale them up.
std::size_t runtime_sequences(std::size_t default_count);

/// Build + runtime provenance in one queryable record: what this binary
/// was compiled as (version, lane geometry, AVX2 code generation) and what
/// the current environment resolves to (threads). `retscan describe`
/// and the `retscan serve` startup banner print exactly this, so a result
/// can always be tied back to the configuration that produced it.
struct BuildInfo {
  const char* version;       ///< RETSCAN_VERSION_STRING
  unsigned lane_words;       ///< 64-bit words per LaneBlock (always 4)
  unsigned lane_bits;        ///< lanes per block = 64 * lane_words
  bool avx2;                 ///< library compiled with __AVX2__ (-mavx2)
  unsigned threads;          ///< resolved worker count (RETSCAN_THREADS / hw)
};

/// Snapshot the provenance (consults the cached runtime_config()).
BuildInfo build_info();

/// The canonical multi-line provenance block:
///
///     retscan:  11.0.0
///     lanes:    4 x 64 = 256 per block (portable kernels)
///     threads:  8 (hardware)
///
/// `avx2 kernels` replaces `portable kernels` in a -mavx2 build, and the
/// threads label is `RETSCAN_THREADS` only when that override was valid.
void print_build_info(std::ostream& out);

}  // namespace retscan
