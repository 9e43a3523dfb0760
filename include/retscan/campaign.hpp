#pragma once

/// retscan public surface — declarative campaigns.
///
/// One spec describes any of the library's statistical workloads —
/// validation campaigns (LFSR or electrical fault injection), fault-coverage /
/// ATPG runs, transition-delay / bridging / sequential coverage
/// measurements, and manufacturing scan-test deliveries — with uniform
/// seed / shard knobs, and `run(Session&, spec)` runs it on the one pooled
/// route its kind has, on the caller's pool (RunHooks::runner) or the
/// session's. Same seed → bit-identical results at any thread count
/// (asserted by tests/test_api.cpp); the scalar oracles those
/// routes are checked against stay engine-level functions
/// (FastTestbench::run_reference, StructuralTestbench::run,
/// deliver_scan_test).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "atpg/atpg.hpp"
#include "atpg/scan_test.hpp"
#include "core/protected_design.hpp"
#include "parallel/campaign_runner.hpp"
#include "testbench/harness.hpp"

namespace retscan {

class Session;

/// What the campaign measures.
enum class CampaignKind {
  Validation,    ///< Fig. 8 testbench: inject → detect/correct statistics
                 ///< (mode = RushModel draws upsets from the electrical model)
  FaultCoverage, ///< ATPG + stuck-at fault simulation over the scan frame
  ScanTest,      ///< pattern delivery through the scan fabric, checked
  TransitionDelay,    ///< launch/capture pattern-pair transition-fault coverage
  Bridging,           ///< wired-AND/OR gate-input bridge coverage
  SequentialCoverage, ///< multi-cycle stuck-at coverage, no scan access
};

/// Which model tier a validation campaign runs on.
enum class ValidationTier {
  Behavioral, ///< bit-exact behavioral protectors (paper-scale, fast)
  Structural, ///< gate-level simulated ProtectedDesign (slow, exact)
};

/// Canonical spellings — exactly the values the spec-file format and the
/// `retscan` CLI accept ("validation", "structural", "rush-model", ...).
const char* to_string(CampaignKind kind);
const char* to_string(ValidationTier tier);
const char* to_string(InjectionMode mode);

/// Inverse of to_string; returns false (out untouched) on unknown text.
bool from_string(std::string_view text, CampaignKind& out);
bool from_string(std::string_view text, ValidationTier& out);
bool from_string(std::string_view text, InjectionMode& out);

/// Options for Session::run_scan_test. Deliveries always go through the
/// Fig. 5(b) test-mode ports: a ProtectedDesign's per-chain si ports are
/// superseded by the monitor feedback muxes.
struct ScanTestOptions {
  /// Pattern count per pool shard (64-lane aligned).
  std::size_t patterns_per_shard = 256;
};

/// Declarative description of one campaign. Geometry (FIFO, chains, code)
/// comes from the Session the spec runs on; the spec holds only the
/// workload. Construct with designated initializers:
///
///   CampaignSpec spec{.kind = CampaignKind::Validation,
///                     .seed = 2024,
///                     .sequences = 200000};
///   CampaignResult result = run(session, spec);
struct CampaignSpec {
  CampaignKind kind = CampaignKind::Validation;
  /// Campaign master seed. Every kind derives its per-shard / injector
  /// streams from this one value (for FaultCoverage/ScanTest it overrides
  /// atpg.seed so one knob controls the whole run).
  std::uint64_t seed = 1;
  /// Trials (validation kinds), fault-list entries (coverage kinds) or
  /// patterns (scan-test, floored to whole 64-lane batches) per pool shard;
  /// 0 → the kind's default.
  std::size_t shard_size = 0;

  // --- Validation ------------------------------------------------------
  /// Sleep/wake trial count. Must be > 0 for validation kinds.
  std::size_t sequences = 0;
  ValidationTier tier = ValidationTier::Behavioral;
  InjectionMode mode = InjectionMode::SingleRandom;
  std::size_t burst_size = 4;
  std::size_t burst_spread = 2;
  /// Electrical model, used when mode == InjectionMode::RushModel.
  CorruptionParameters corruption{};
  RushParameters rush{};

  // --- FaultCoverage / ScanTest / TransitionDelay / Bridging -----------
  /// Pattern generation. TransitionDelay pairs consecutive patterns
  /// (pattern k launches, k+1 captures), so N patterns exercise N-1
  /// transitions; Bridging replays the same set per bridge.
  AtpgOptions atpg{};

  // --- SequentialCoverage ----------------------------------------------
  /// Clock cycles per random primary-input sequence; `sequences` (above)
  /// counts the sequences. Must be > 0 for sequential-coverage campaigns
  /// and 0 (unset) everywhere else — no other kind steps a clock.
  std::size_t cycles = 0;

  // --- Durability (validation kinds) -----------------------------------
  /// Checkpoint journal path (`campaign.checkpoint =` spec key /
  /// `--checkpoint`): each completed shard is appended as one fixed-format
  /// CRC'd record by a single positional write at the journal's end, so an
  /// interrupted campaign loses at most the shards in flight (a record torn
  /// by a crash fails its CRC and its shard reruns on resume). Empty = no
  /// checkpointing. Validation kinds only.
  std::string checkpoint;
  /// Resume from `checkpoint` (`campaign.resume =` / `--resume`): the journal
  /// header is validated against the current spec/design/version
  /// fingerprint, completed shards are merged from the journal in shard
  /// order, and the rest run — the final CampaignResult is bit-identical
  /// to an uninterrupted run. Requires `checkpoint` to be set.
  bool resume = false;
  /// Wall-clock budget (`campaign.deadline_ms =` / `--deadline-ms`): once
  /// elapsed, shards not yet started are skipped and the result carries
  /// CampaignStatus::Timeout with the partial statistics (checkpointed if
  /// a journal is armed) instead of running forever. nullopt = no budget;
  /// an explicit 0 is rejected by validate().
  std::optional<std::uint64_t> deadline_ms;
};

/// Everything a campaign produced. Only the section matching `kind` is
/// populated; the execution-shape fields are always filled.
struct CampaignResult {
  CampaignKind kind = CampaignKind::Validation;
  /// Settle schedule the gate-level engines ran (sim/schedule.hpp), fixed
  /// by the route: Auto for structural validation (each engine probes its
  /// own activity; see `activity` for what that chose), Sweep for
  /// everything else. Not settable.
  Schedule schedule = Schedule::Sweep;
  unsigned threads = 1;
  std::size_t shard_count = 1;
  double seconds = 0.0; ///< wall-clock of the campaign body

  /// How the campaign ended (util/cancel.hpp). Complete unless a SIGINT /
  /// cancellation request or an expired deadline_ms stopped it early; then
  /// the statistics cover shards_completed of shard_count shards and
  /// passed() is false regardless of the verdict counters.
  CampaignStatus status = CampaignStatus::Complete;
  std::size_t shards_completed = 0;
  /// Shards merged from the checkpoint journal instead of rerun (--resume).
  std::size_t shards_resumed = 0;

  /// Activity telemetry from the gate-level engines (avg_dirty_fraction(),
  /// event_sweeps, full_sweep_fallbacks, ...) — why Auto chose what it
  /// chose. All-zero for behavioral campaigns and non-validation kinds.
  ScheduleTelemetry activity{};

  ValidationStats validation{}; ///< Validation
  AtpgResult atpg{};            ///< FaultCoverage / ScanTest / TransitionDelay / Bridging
  /// FaultCoverage / TransitionDelay / Bridging / SequentialCoverage —
  /// detected_by indexes patterns, pattern *pairs*, patterns, and random
  /// sequences respectively (see atpg/fault_models.hpp).
  FaultSimResult faults{};
  ScanTestResult scan_test{};   ///< ScanTest

  /// Kind-appropriate "nothing escaped" verdict: no silent corruptions
  /// (validation kinds), all deliveries matched (scan test), always true
  /// for pure coverage measurements.
  bool passed() const;
};

/// Reject unrunnable specs with an actionable message (thrown as
/// retscan::Error): zero trial counts, injection with nothing to inject,
/// sessions lacking the golden model a validation campaign needs, designs
/// the route would not test as built (a hardware controller on the
/// structural tier or scan-test), bad shard sizes.
void validate(const CampaignSpec& spec, const Session& session);

/// Run the campaign on the session's design. Validates first; throws
/// retscan::Error on a bad spec.
CampaignResult run(Session& session, const CampaignSpec& spec);

/// Execution hooks for services embedding the campaign router — the
/// `retscan serve` daemon runs every job through these so concurrent
/// campaigns share one runner (whose pool interleaves their shards fairly)
/// and stay individually cancellable.
/// All optional; run(session, spec) is exactly run(session, spec, {}).
/// None of the hooks can change campaign statistics: same seed → same
/// results, hooked or not (asserted by tests/test_serve.cpp).
struct RunHooks {
  /// Campaign runner (pool + warm workspaces) to execute on instead of the
  /// session's: the caller chooses the pool, and with it the thread count.
  /// nullptr → session.runner().
  parallel::CampaignRunner* runner = nullptr;
  /// Caller-owned cancel token polled by the shard loop. When the spec
  /// carries deadline_ms, run() arms it on this token. nullptr → run()
  /// uses a private token (global-cancel + deadline only).
  CancelToken* cancel = nullptr;
  /// Per-shard progress observer, (shards_done, shard_count); called from
  /// pool threads. Sharded validation kinds only.
  std::function<void(std::size_t, std::size_t)> progress;
};

/// run() with service hooks — see RunHooks.
CampaignResult run(Session& session, const CampaignSpec& spec,
                   const RunHooks& hooks);

/// FNV-1a hash binding a checkpoint journal to one exact campaign: the
/// library version, the spec's statistics-shaping fields (kind, tier,
/// seed, sequences, injection/corruption parameters) and
/// the session's design geometry (FIFO shape + protection architecture).
/// Two specs with equal fingerprints produce bit-identical shard outcomes,
/// which is what makes merging a journal from one into the other safe.
std::uint64_t campaign_fingerprint(const CampaignSpec& spec, const Session& session);

// --- campaign spec files (the `retscan run campaign.spec` format) --------

/// A parsed spec file: the design geometry plus the campaign. The textual
/// format is `key = value` lines with '#' comments; see
/// docs/spec-reference.md for the full key reference.
struct SpecFile {
  FifoSpec fifo{32, 32};
  ProtectionConfig protection;
  CampaignSpec campaign;
  /// `campaign.threads` / `--threads`: the worker count make_session gives
  /// the session's pool (SessionOptions::threads); 0 → RETSCAN_THREADS,
  /// else hardware_concurrency().
  unsigned threads = 0;
  /// `netlist = <path.v>`: import a structural-Verilog netlist instead of
  /// generating the golden FIFO. load_spec_file resolves a relative path
  /// against the spec file's directory, so specs can ship next to their
  /// circuits. Empty = FIFO generator (the fifo.* keys).
  std::string netlist_file;
};

/// The base netlist a spec describes, before protection: the imported
/// Verilog file when `netlist =` is set, the generated FIFO otherwise.
/// This is what `retscan describe` reports cell/flop counts from without
/// synthesizing anything.
Netlist spec_base_netlist(const SpecFile& file);

/// Build the Session a spec file describes. FIFO specs stay lazy (no gate
/// level is built until a campaign needs it); netlist specs import the file
/// via Session::from_verilog — protected when the design has flip-flops,
/// bare (fault-coverage only) when it is purely combinational. The spec's
/// campaign.threads (SpecFile::threads) becomes the session's worker count.
Session make_session(const SpecFile& file);

/// Parse a spec from a stream / string / file. Errors (unknown keys,
/// malformed values) are thrown as retscan::Error naming the line.
SpecFile parse_spec(std::istream& in);
SpecFile parse_spec_text(const std::string& text);
SpecFile load_spec_file(const std::string& path);

/// The strict non-negative integer parse the spec format (and the CLI's
/// override flags) use: plain decimal digits, fully consumed. Negatives,
/// trailing junk and overflow return nullopt — never a wrapped value.
std::optional<std::uint64_t> parse_u64(std::string_view text);

}  // namespace retscan
