#pragma once

/// serve wire protocol — the shared vocabulary of the `retscan serve`
/// daemon and the `retscan submit`/`jobs`/`cancel` client commands.
///
/// Framing is one JSON object per LF-terminated line on a local
/// AF_UNIX stream socket. Requests carry {"cmd": ...}; responses carry
/// {"ok": true, ...} or {"ok": false, "error": "..."}. The protocol is
/// versioned (kProtocolVersion): `ping` reports the version the daemon
/// speaks, and clients send none.
///
/// A campaign's statistics cross the wire as a ResultSummary: every
/// counter as an exact u64 (never a double — counters like 100M-sequence
/// budgets must survive the round trip bit-for-bit), plus the resolved
/// execution shape. summary_digest() hashes only the statistics-bearing
/// fields, so two runs of the same spec compare equal across thread
/// counts, sessions and daemon restarts — the serve CI job asserts cold,
/// session-warm and restarted-daemon submissions digest-identically.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "retscan/campaign.hpp"
#include "serve/json.hpp"

namespace retscan::serve {

/// Bumped whenever a message shape changes incompatibly.
inline constexpr std::uint64_t kProtocolVersion = 2;

/// Socket path resolution: explicit flag > RETSCAN_SOCKET > ./retscan.sock.
std::string default_socket_path();

/// Where a submitted job is in its lifecycle.
enum class JobState {
  Queued,     ///< accepted, waiting for a driver slot
  Running,    ///< campaign body executing on the shared pool
  Done,       ///< finished with CampaignStatus::Complete
  Failed,     ///< spec/setup/run error; see the job's error text
  Cancelled,  ///< cancel request (client or daemon drain) took effect
  Timeout,    ///< the spec's deadline_ms expired mid-run
};

const char* to_string(JobState state);
bool from_string(std::string_view text, JobState& out);
bool is_terminal(JobState state);

/// Flattened, wire-safe image of a CampaignResult. Counters are exact
/// u64s; rates are recomputed from them on display, never shipped as
/// doubles. Only the section matching `kind` is meaningful, mirroring
/// CampaignResult itself.
struct ResultSummary {
  std::string kind;      ///< to_string(CampaignKind)
  std::string schedule;  ///< schedule the gate-level engines ran
  std::string status;    ///< to_string(CampaignStatus)
  std::uint64_t threads = 1;
  std::uint64_t shard_count = 1;
  std::uint64_t shards_completed = 0;
  std::uint64_t shards_resumed = 0;
  double seconds = 0.0;
  std::string checkpoint;  ///< journal path, for the status/resumed lines
  bool passed = false;

  // Validation (testbench/harness.hpp ValidationStats).
  std::uint64_t sequences = 0;
  std::uint64_t errors_injected = 0;
  std::uint64_t sequences_with_errors = 0;
  std::uint64_t detected = 0;
  std::uint64_t corrected = 0;
  std::uint64_t flagged_uncorrectable = 0;
  std::uint64_t comparator_mismatches = 0;
  std::uint64_t silent_corruptions = 0;

  // FaultCoverage / ScanTest (atpg/atpg.hpp, atpg/scan_test.hpp).
  std::uint64_t atpg_patterns = 0;
  std::uint64_t atpg_total_faults = 0;
  std::uint64_t atpg_detected_random = 0;
  std::uint64_t atpg_detected_podem = 0;
  std::uint64_t atpg_untestable = 0;
  std::uint64_t atpg_aborted = 0;
  std::uint64_t faults_total = 0;
  std::uint64_t faults_detected = 0;
  std::uint64_t scan_patterns_applied = 0;
  std::uint64_t scan_mismatches = 0;

  // Schedule telemetry (sim/schedule.hpp) — thread-count invariant, so it
  // participates in the digest.
  std::uint64_t event_sweeps = 0;
  std::uint64_t full_sweeps = 0;
  std::uint64_t full_sweep_fallbacks = 0;
  std::uint64_t event_instrs = 0;
  std::uint64_t sweep_instrs = 0;
  std::uint64_t instr_capacity = 0;
};

/// Flatten a finished campaign for the wire.
ResultSummary summarize(const CampaignResult& result, const CampaignSpec& spec);

/// FNV-1a over the statistics-bearing fields only: kind, status, pass
/// verdict, every counter and the schedule telemetry. Deliberately excludes
/// threads, shard sizes realized per run (shard_count IS included — it is
/// seed/spec-determined, not thread-determined), wall-clock seconds and the
/// checkpoint path, so equal work ⇒ equal digest at any thread count.
std::uint64_t summary_digest(const ResultSummary& summary);

Json to_json(const ResultSummary& summary);
ResultSummary summary_from_json(const Json& json);

/// The `ran:`/`resumed:`/`status:`/`result:`/`schedule:`/`verdict:` block
/// of a finished campaign — the one renderer behind both `retscan run`
/// (which prints summarize() of its own result) and `retscan submit
/// --wait`, so the two print identical lines for every campaign kind.
void print_summary(std::ostream& out, const ResultSummary& summary);

/// The CLI override flags a submit request may attach to a spec file —
/// the same knobs `retscan run` accepts, shipped as JSON so the daemon
/// applies them after parsing the spec on its side of the socket.
struct SubmitOverrides {
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> threads;
  std::optional<std::uint64_t> sequences;
  std::optional<std::string> checkpoint;
  bool resume = false;
  std::optional<std::uint64_t> deadline_ms;
};

Json to_json(const SubmitOverrides& overrides);
/// Throws retscan::Error on a key it does not know (an older client's
/// "schedule" or "backend", say), so an override is never silently dropped.
SubmitOverrides overrides_from_json(const Json& json);

/// Apply overrides onto a parsed spec: `retscan run` applies its flags
/// through this, the daemon a submitted job's. Throws retscan::Error on
/// an out-of-range thread count.
void apply_overrides(SpecFile& file, const SubmitOverrides& overrides);

/// Map a terminal job state + summary to the `retscan run` exit-code
/// convention: 0 pass, 1 fail, 2 spec/daemon error, 3 deadline expired,
/// 130 cancelled.
int exit_code_for(JobState state, const ResultSummary* summary);

}  // namespace retscan::serve
