#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>

#include "sim/schedule.hpp"

namespace retscan {

/// Parsed `RETSCAN_*` environment overrides — the one place the process
/// environment is interpreted. All knobs parse strictly: numeric values must
/// be plain positive decimal integers (threads additionally capped at 4096)
/// and RETSCAN_SCHEDULE must be one of auto/sweep/event; anything else
/// (garbage, 0, negative, trailing junk, overflow) warns on stderr and is
/// treated as unset, never silently accepted.
struct RuntimeConfig {
  /// Resolved worker count: the RETSCAN_THREADS override when set and
  /// valid, else hardware_concurrency() (else 1). Always >= 1 — campaigns
  /// default to using every core now that the persistent-workspace runner
  /// profiles profitable; RETSCAN_THREADS=1 is the explicit serial opt-out.
  unsigned threads = 1;
  /// RETSCAN_SEQUENCES campaign-budget override; nullopt means
  /// unset/invalid (use the caller's default).
  std::optional<std::size_t> sequences;
  /// RETSCAN_SCHEDULE settle-schedule override; nullopt means unset/invalid
  /// (engines default to Sweep, campaigns to the spec's schedule knob). An
  /// explicit CampaignSpec schedule always beats the environment.
  std::optional<Schedule> schedule;
};

/// The parsed environment, cached after the first call (every SimEngine
/// construction consults it, so it sits on hot construction paths). Tests
/// and embedding applications that mutate RETSCAN_* afterwards must call
/// runtime_config_refresh() to see the change.
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

/// Resolve a requested schedule against the environment: an explicit
/// Sweep/Event request wins; Auto defers to RETSCAN_SCHEDULE when set and
/// otherwise stays Auto (engine-side activity probing).
Schedule runtime_schedule(Schedule requested);

/// Build + runtime provenance in one queryable record: what this binary
/// was compiled as (version, lane geometry, AVX2 kernels) and what the
/// current environment resolves to (threads, schedule). `retscan describe`
/// and the `retscan serve` startup banner print exactly this, so a result
/// can always be tied back to the configuration that produced it.
struct BuildInfo {
  const char* version;       ///< RETSCAN_VERSION_STRING
  unsigned lane_words;       ///< 64-bit words per LaneBlock (RETSCAN_LANE_WORDS)
  unsigned lane_bits;        ///< lanes per block = 64 * lane_words
  bool avx2;                 ///< explicit AVX2 LaneBlock kernels compiled in
  unsigned threads;          ///< resolved worker count (RETSCAN_THREADS / hw)
  std::optional<Schedule> schedule; ///< RETSCAN_SCHEDULE override, if any
};

/// Snapshot the provenance (consults the cached runtime_config()).
BuildInfo build_info();

/// The canonical multi-line provenance block:
///
///     retscan:  3.0.0
///     lanes:    4 x 64 = 256 per block (avx2 kernels)
///     threads:  8 (hardware)
///     schedule: auto (engine activity probing)
void print_build_info(std::ostream& out);

}  // namespace retscan
