#include "retscan/campaign.hpp"

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>

#include "atpg/atpg.hpp"
#include "atpg/fault_models.hpp"
#include "atpg/scan_test.hpp"
#include "circuits/fifo.hpp"
#include "retscan/session.hpp"
#include "retscan/version.hpp"
#include "sim/packed_sim.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"
#include "util/journal.hpp"

namespace retscan {

const char* to_string(CampaignKind kind) {
  switch (kind) {
    case CampaignKind::Validation:         return "validation";
    case CampaignKind::FaultCoverage:      return "fault-coverage";
    case CampaignKind::ScanTest:           return "scan-test";
    case CampaignKind::TransitionDelay:    return "transition-delay";
    case CampaignKind::Bridging:           return "bridging";
    case CampaignKind::SequentialCoverage: return "sequential-coverage";
  }
  return "?";
}

const char* to_string(ValidationTier tier) {
  switch (tier) {
    case ValidationTier::Behavioral: return "behavioral";
    case ValidationTier::Structural: return "structural";
  }
  return "?";
}

const char* to_string(InjectionMode mode) {
  switch (mode) {
    case InjectionMode::None:          return "none";
    case InjectionMode::SingleRandom:  return "single-random";
    case InjectionMode::MultipleBurst: return "multiple-burst";
    case InjectionMode::RushModel:     return "rush-model";
  }
  return "?";
}

namespace {

/// Every value of each spec enum: the one list from_string walks and the
/// spec parser's "is not one of" message prints.
constexpr CampaignKind kCampaignKinds[] = {
    CampaignKind::Validation,      CampaignKind::FaultCoverage, CampaignKind::ScanTest,
    CampaignKind::TransitionDelay, CampaignKind::Bridging,      CampaignKind::SequentialCoverage};
constexpr ValidationTier kTiers[] = {ValidationTier::Behavioral, ValidationTier::Structural};
constexpr InjectionMode kModes[] = {InjectionMode::None, InjectionMode::SingleRandom,
                                    InjectionMode::MultipleBurst, InjectionMode::RushModel};

std::span<const CampaignKind> values_of(CampaignKind) { return kCampaignKinds; }
std::span<const ValidationTier> values_of(ValidationTier) { return kTiers; }
std::span<const InjectionMode> values_of(InjectionMode) { return kModes; }

template <typename Enum>
bool enum_from_string(std::string_view text, Enum& out) {
  for (const Enum value : values_of(out)) {
    if (text == to_string(value)) {
      out = value;
      return true;
    }
  }
  return false;
}

/// The accepted spellings of `Enum`, comma-separated.
template <typename Enum>
std::string spellings() {
  std::string list;
  for (const Enum value : values_of(Enum{})) {
    list += (list.empty() ? "" : ", ") + std::string(to_string(value));
  }
  return list;
}

}  // namespace

bool from_string(std::string_view text, CampaignKind& out) {
  return enum_from_string(text, out);
}

bool from_string(std::string_view text, ValidationTier& out) {
  return enum_from_string(text, out);
}

bool from_string(std::string_view text, InjectionMode& out) {
  return enum_from_string(text, out);
}

bool CampaignResult::passed() const {
  if (status != CampaignStatus::Complete) {
    // Partial statistics can't certify anything: a cancelled or timed-out
    // campaign never passes, however clean the shards that did finish look.
    return false;
  }
  switch (kind) {
    case CampaignKind::Validation:
      return validation.silent_corruptions == 0;
    case CampaignKind::FaultCoverage:
    case CampaignKind::TransitionDelay:
    case CampaignKind::Bridging:
    case CampaignKind::SequentialCoverage:
      return true;  // a coverage measurement has no pass/fail verdict
    case CampaignKind::ScanTest:
      return scan_test.all_passed();
  }
  return false;
}

namespace {

/// Kinds that run ATPG to build the pattern set they replay.
bool is_pattern_kind(CampaignKind kind) {
  return kind == CampaignKind::FaultCoverage || kind == CampaignKind::ScanTest ||
         kind == CampaignKind::TransitionDelay || kind == CampaignKind::Bridging;
}

/// The session's geometry + the spec's workload, as the testbenches
/// (FastTestbench, StructuralTestbench) take it: the one mapping from a
/// Session-routed campaign to the testbench configuration it runs.
ValidationConfig validation_config(Session& session, const CampaignSpec& spec) {
  ValidationConfig config;
  config.fifo = session.fifo();
  config.chain_count = session.protection().chain_count;
  config.kind = session.protection().kind;
  config.hamming_r = session.protection().hamming_r;
  config.mode = spec.mode;
  config.burst_size = spec.burst_size;
  config.burst_spread = spec.burst_spread;
  config.seed = spec.seed;
  config.corruption = spec.corruption;
  config.rush = spec.rush;
  return config;
}

[[noreturn]] void reject(const CampaignSpec& spec, const std::string& why) {
  throw Error("CampaignSpec (" + std::string(to_string(spec.kind)) + "): " + why);
}

/// Why neither scan delivery can test a design with a generated controller:
/// ProtectedDesign rewires the se/retain readers to the controller's FSM.
constexpr const char* kControllerOwnsScanPorts =
    "protection.hardware_controller = true: the generated controller drives "
    "se and retain, so a delivery through those ports never reaches the "
    "chains and every pattern would mismatch — drive the design through "
    "HardwareRetentionSession (examples/hardware_controller.cpp), or run a "
    "fault-simulation kind";

/// The campaign fingerprint is a plain FNV-1a 64 over the fields below —
/// the shared util accumulator, so journal headers and structure
/// fingerprints hash identically everywhere.
using Fingerprint = Fnv1a;

/// True when the spec carries any of the durability knobs the sharded
/// campaign runner honours.
bool wants_durability(const CampaignSpec& spec) {
  return !spec.checkpoint.empty() || spec.resume || spec.deadline_ms.has_value();
}

void validate_durability(const CampaignSpec& spec, const Session& session) {
  if (spec.deadline_ms && *spec.deadline_ms == 0) {
    reject(spec,
           "deadline_ms = 0 would time out before the first shard — drop the "
           "key for no deadline, or give the campaign a real budget");
  }
  if (spec.resume && spec.checkpoint.empty()) {
    reject(spec,
           "resume = true without a checkpoint path: there is no journal to "
           "resume from — set checkpoint = <path> (the same path the "
           "interrupted run used)");
  }
  if (!wants_durability(spec)) {
    return;
  }
  // Checkpoint/resume/deadline all ride the shard loop of the pooled
  // campaign runner — the only place with a resumable unit of work.
  if (spec.kind != CampaignKind::Validation) {
    reject(spec,
           "checkpoint/resume/deadline_ms ride the sharded validation "
           "campaign runner; coverage and scan-test kinds replay a "
           "fault/pattern set in one pass — split the workload and rerun "
           "instead");
  }
  if (!spec.checkpoint.empty()) {
    namespace fs = std::filesystem;
    const fs::path path(spec.checkpoint);
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      reject(spec, "checkpoint path '" + spec.checkpoint +
                       "' is a directory — name a journal file inside it");
    }
    fs::path dir = path.parent_path();
    if (dir.empty()) {
      dir = ".";
    }
    if (!fs::is_directory(dir, ec)) {
      reject(spec, "checkpoint directory '" + dir.string() +
                       "' does not exist (or is not a directory) — create it "
                       "first; the journal only creates the file, never its "
                       "parents");
    }
    if (::access(dir.c_str(), W_OK) != 0) {
      reject(spec, "checkpoint directory '" + dir.string() +
                       "' is not writable — the journal appends a record "
                       "after every shard; pick a writable location");
    }
    if (spec.resume) {
      if (const std::optional<CampaignJournal::Header> header =
              CampaignJournal::peek(spec.checkpoint)) {
        const std::uint64_t current = campaign_fingerprint(spec, session);
        if (header->fingerprint != current || header->seed != spec.seed) {
          reject(spec,
                 "checkpoint journal '" + spec.checkpoint +
                     "' was written by a different campaign, design, seed or "
                     "library version — merging it would corrupt the "
                     "statistics; rerun without resume to discard it, or "
                     "restore the original spec/netlist/seed");
        }
      }
      // No file (or a torn header) is fine: resume degenerates to a fresh
      // checkpointed run.
    }
  }
}

/// The shape checks the testbenches and protection synthesis make, so
/// validate() (and `retscan describe`) rejects what run() would stop on.
/// The behavioral tier lays every code kind out in Hamming words; synthesis
/// (every route but the behavioral tier) builds Hamming monitors over k
/// chains and the Fig. 5(b) concatenation over test_width groups.
void validate_geometry(const CampaignSpec& spec, const Session& session) {
  if (!session.is_protected()) {
    return;  // a bare session synthesizes nothing
  }
  const ProtectionConfig& p = session.protection();
  const std::string chains = std::to_string(p.chain_count);
  const bool validation = spec.kind == CampaignKind::Validation;
  const bool behavioral = validation && spec.tier == ValidationTier::Behavioral;
  if (behavioral || p.kind != CodeKind::CrcDetect) {
    if (p.hamming_r < 2 || p.hamming_r > 16) {
      reject(spec, "protection.hamming_r = " + std::to_string(p.hamming_r) +
                       " is out of range (2..16)");
    }
    const std::size_t k = (std::size_t{1} << p.hamming_r) - 1 - p.hamming_r;
    if (p.chain_count % k != 0) {
      reject(spec, "protection.chain_count = " + chains + " is not a multiple of k = " +
                       std::to_string(k) + ", the data bits of a Hamming word at "
                       "protection.hamming_r = " + std::to_string(p.hamming_r));
    }
  }
  if (behavioral) {
    return;
  }
  // The structural testbench synthesizes its own design at test width 4.
  const std::size_t test_width = validation ? 4 : p.test_width;
  if (test_width == 0 || p.chain_count % test_width != 0) {
    reject(spec, (validation ? std::string("the structural tier's test width 4")
                             : "protection.test_width = " + std::to_string(test_width)) +
                     " does not divide protection.chain_count = " + chains);
  }
}

}  // namespace

std::uint64_t campaign_fingerprint(const CampaignSpec& spec, const Session& session) {
  Fingerprint fp;
  fp.add_text(RETSCAN_VERSION_STRING);
  // Workload: everything that shapes per-shard outcomes. The seed and shard
  // plan are stored (and checked) separately in the journal header; the
  // seed also folds in here so one comparison catches everything.
  fp.add(static_cast<std::uint64_t>(spec.kind));
  fp.add(static_cast<std::uint64_t>(spec.tier));
  fp.add(spec.seed);
  fp.add(spec.sequences);
  fp.add(spec.cycles);
  fp.add(static_cast<std::uint64_t>(spec.mode));
  fp.add(spec.burst_size);
  fp.add(spec.burst_spread);
  fp.add_double(spec.corruption.noise_margin_volts);
  fp.add_double(spec.corruption.margin_sigma_volts);
  fp.add_double(spec.corruption.vulnerability);
  fp.add(spec.corruption.cluster_spread);
  fp.add_double(spec.corruption.cluster_fraction);
  fp.add_double(spec.rush.vdd_volts);
  fp.add_double(spec.rush.resistance_ohm);
  fp.add_double(spec.rush.inductance_nh);
  fp.add_double(spec.rush.capacitance_nf);
  fp.add(spec.rush.stagger_stages);
  // Design geometry: the session side of validation_config(). Hashing the
  // construction inputs (not the synthesized gates) keeps lazy sessions
  // lazy; equal inputs synthesize equal designs.
  fp.add(session.has_fifo() ? 1 : 0);
  if (session.has_fifo()) {
    fp.add(session.fifo().depth);
    fp.add(session.fifo().width);
  }
  const ProtectionConfig& protection = session.protection();
  fp.add(static_cast<std::uint64_t>(protection.kind));
  fp.add(protection.hamming_r);
  fp.add(protection.secded ? 1 : 0);
  fp.add(protection.chain_count);
  fp.add(protection.test_width);
  fp.add(protection.hardware_controller ? 1 : 0);
  return fp.hash;
}

void validate(const CampaignSpec& spec, const Session& session) {
  if (spec.kind == CampaignKind::Validation) {
    if (spec.sequences == 0) {
      reject(spec,
             "sequences must be > 0 — a validation campaign with no sleep/wake "
             "trials measures nothing; set spec.sequences (RETSCAN_SEQUENCES "
             "scales bench defaults, see retscan/runtime.hpp)");
    }
    if (!session.has_fifo()) {
      reject(spec,
             "this session wraps an arbitrary netlist, but validation campaigns "
             "compare against the behavioral golden FIFO model — construct the "
             "Session from a FifoSpec, or run fault-coverage / scan-test kinds");
    }
    // The Fig. 8 testbenches parameterize on (kind, hamming_r, chain_count)
    // only; refuse to silently run a campaign on a reduced model of the
    // session's protection architecture.
    const ProtectionConfig& protection = session.protection();
    if (protection.secded) {
      reject(spec,
             "the validation testbenches model plain Hamming/CRC monitors, not "
             "SEC-DED — a secded session would silently report plain-Hamming "
             "statistics; use fault-coverage / scan-test kinds, or the "
             "SEC-DED ablation bench (bench_ablation_secded)");
    }
    if (spec.tier == ValidationTier::Structural && protection.hardware_controller) {
      reject(spec,
             "protection.hardware_controller = true, but the structural tier "
             "synthesizes and tests its own controller-less design, not this "
             "one — drive the controller through HardwareRetentionSession "
             "(examples/hardware_controller.cpp), or use the behavioral tier");
    }
    if (spec.mode == InjectionMode::MultipleBurst && spec.burst_size == 0) {
      reject(spec, "burst_size must be > 0 for InjectionMode::MultipleBurst");
    }
    if (spec.tier == ValidationTier::Structural && spec.shard_size != 0 &&
        spec.shard_size % PackedSim::lane_count() != 0) {
      reject(spec,
             "shard_size = " + std::to_string(spec.shard_size) +
                 " is not a multiple of the 64-lane batch width — gate-level "
                 "shards run whole PackedSim batches, and silent rounding would "
                 "change the shard plan (and the statistics) behind your back");
    }
  } else {
    if (spec.kind == CampaignKind::ScanTest && !session.is_protected()) {
      reject(spec,
             "this session wraps a bare (unprotected) netlist with no scan "
             "fabric to deliver patterns through — wrap the netlist in a "
             "ProtectionConfig (it needs flip-flops), or run a fault-coverage "
             "campaign instead");
    }
    if (spec.kind == CampaignKind::ScanTest && session.protection().hardware_controller) {
      reject(spec, kControllerOwnsScanPorts);
    }
    if (is_pattern_kind(spec.kind) && spec.atpg.random_patterns == 0 &&
        !spec.atpg.run_podem) {
      reject(spec,
             "atpg.random_patterns == 0 with run_podem == false generates an "
             "empty pattern set — enable one of the two ATPG phases");
    }
    if (spec.kind == CampaignKind::SequentialCoverage) {
      if (spec.sequences == 0) {
        reject(spec,
               "sequences must be > 0 — sequential coverage drives random "
               "primary-input sequences, and zero of them measures nothing");
      }
      if (spec.cycles == 0) {
        reject(spec,
               "cycles must be > 0 — each sequence clocks the design for "
               "spec.cycles cycles from the all-zero state; set "
               "campaign.cycles (32 is a reasonable start for '89-class "
               "circuits)");
      }
    }
  }
  if (spec.cycles != 0 && spec.kind != CampaignKind::SequentialCoverage) {
    reject(spec, "cycles only applies to sequential-coverage campaigns — no "
                 "other kind steps a clock; drop campaign.cycles");
  }
  validate_geometry(spec, session);
  validate_durability(spec, session);
}

namespace {

void run_validation(Session& session, const CampaignSpec& spec,
                    parallel::CampaignRunner& runner, const RunHooks& hooks,
                    CampaignResult& result) {
  ValidationConfig config = validation_config(session, spec);
  const bool behavioral = spec.tier == ValidationTier::Behavioral;
  // Structural engines probe their own activity; behavioral runs have no
  // gate level at all and report sweep.
  config.schedule = behavioral ? Schedule::Sweep : Schedule::Auto;
  result.schedule = config.schedule;
  // Durability hooks: a cancel token (SIGINT via the global flag plus the
  // spec's deadline budget) and, when armed, the checkpoint journal. A
  // service passes its own per-job token via RunHooks so it can cancel this
  // campaign without touching the others; the deadline is armed on
  // whichever token is in play. validate() has already vetted the
  // checkpoint path and, for resume, the journal header — constructing the
  // journal re-checks both anyway (TOCTOU-safe).
  CancelToken local_cancel;
  CancelToken* cancel = hooks.cancel != nullptr ? hooks.cancel : &local_cancel;
  if (spec.deadline_ms) {
    cancel->set_deadline_ms(*spec.deadline_ms);
  }
  parallel::RunControls controls;
  controls.cancel = cancel;
  controls.progress = hooks.progress;
  std::unique_ptr<CampaignJournal> journal;
  if (!spec.checkpoint.empty()) {
    journal = std::make_unique<CampaignJournal>(
        spec.checkpoint, campaign_fingerprint(spec, session), spec.seed,
        spec.resume ? CampaignJournal::Mode::Resume : CampaignJournal::Mode::Truncate);
    controls.journal = journal.get();
  }
  const parallel::CampaignReport report =
      behavioral ? runner.run_fast(config, spec.sequences, spec.shard_size, controls)
                 : runner.run_structural_packed(config, spec.sequences, spec.shard_size,
                                                controls);
  result.validation = report.stats;
  result.activity = report.telemetry;
  result.shard_count = report.shard_count;
  result.status = report.status;
  result.shards_completed = report.shards_completed;
  result.shards_resumed = report.shards_resumed;
}

/// The one scan-test delivery, behind both Session::run_scan_test and the
/// scan-test campaign kind: the packed delivery sharded across `pool`.
ScanTestResult deliver(Session& session, const std::vector<BitVec>& patterns,
                       ThreadPool& pool, std::size_t shard_size) {
  return deliver_scan_test_packed(ScanPorts::test_mode_of(session.design()), session.frame(),
                                  patterns, pool, shard_size);
}

/// Every kind but the validation ones: ATPG (except sequential), then the
/// scan delivery or one fault model through the shared fault-simulation
/// driver, sharded across `pool`.
void run_coverage(Session& session, const CampaignSpec& spec, ThreadPool& pool,
                  CampaignResult& result) {
  const bool sequential = spec.kind == CampaignKind::SequentialCoverage;
  if (!sequential) {
    AtpgOptions options = spec.atpg;
    options.seed = spec.seed;
    result.atpg = run_atpg(session.frame(), session.faults(), options);
  }
  const std::vector<BitVec>& patterns = result.atpg.patterns;
  if (spec.kind == CampaignKind::ScanTest) {
    const std::size_t shard =
        scan_test_shard_size(spec.shard_size != 0 ? spec.shard_size : 256);
    result.scan_test = deliver(session, patterns, pool, shard);
    result.shard_count = (patterns.size() + shard - 1) / shard;
    return;
  }
  const std::size_t fault_shard =
      spec.shard_size != 0 ? spec.shard_size : sequential ? 64 : 128;
  switch (spec.kind) {
    case CampaignKind::FaultCoverage:
      result.faults =
          fault_simulate(session.frame(), session.faults(), patterns, pool, fault_shard);
      break;
    case CampaignKind::TransitionDelay:
      result.faults = transition_fault_simulate(
          session.frame(), enumerate_transition_faults(session.netlist()), patterns, pool,
          fault_shard);
      break;
    case CampaignKind::Bridging:
      result.faults = bridging_fault_simulate(
          session.frame(), enumerate_bridging_faults(session.netlist()), patterns, pool,
          fault_shard);
      break;
    case CampaignKind::SequentialCoverage:
      // Runs on the session's gate-level netlist directly (no scan frame):
      // the same collapsed stuck-at universe as fault-coverage, detected
      // through free-running multi-cycle simulation instead of scan capture.
      result.faults = sequential_fault_simulate(session.netlist(), session.faults(),
                                                spec.sequences, spec.cycles, spec.seed,
                                                pool, fault_shard);
      break;
    default:
      break;
  }
  result.shard_count = (result.faults.total_faults + fault_shard - 1) / fault_shard;
}

}  // namespace

ScanTestResult Session::run_scan_test(const std::vector<BitVec>& patterns,
                                      const ScanTestOptions& options) {
  if (!protected_) {
    throw Error(
        "Session::run_scan_test: bare sessions have no scan fabric to deliver "
        "patterns through — wrap the netlist in a ProtectionConfig (it needs "
        "flip-flops), or run a fault-coverage campaign instead");
  }
  if (protection_.hardware_controller) {
    throw Error(std::string("Session::run_scan_test: ") + kControllerOwnsScanPorts);
  }
  RETSCAN_CHECK(options.patterns_per_shard > 0,
                "Session::run_scan_test: patterns_per_shard must be > 0 (it is "
                "floored to whole 64-lane batches, minimum one batch)");
  CombinationalFrame& test_frame = frame();
  for (const BitVec& pattern : patterns) {
    if (pattern.size() != test_frame.pattern_width()) {
      throw Error("Session::run_scan_test: pattern width " +
                  std::to_string(pattern.size()) + " does not match the frame's " +
                  std::to_string(test_frame.pattern_width()) +
                  " (PIs + scan flops) — generate patterns with run_atpg() or "
                  "CombinationalFrame::random_pattern()");
    }
  }
  return deliver(*this, patterns, pool(), options.patterns_per_shard);
}

CampaignResult run(Session& session, const CampaignSpec& spec) {
  return run(session, spec, RunHooks{});
}

CampaignResult run(Session& session, const CampaignSpec& spec,
                   const RunHooks& hooks) {
  validate(spec, session);
  CampaignResult result;
  result.kind = spec.kind;
  const auto start = std::chrono::steady_clock::now();
  // Every kind runs on the caller's runner, else the session's: validation
  // shards on it, the other kinds take its pool. Results are thread-count
  // invariant, so the choice is throughput only.
  parallel::CampaignRunner& runner =
      hooks.runner != nullptr ? *hooks.runner : session.runner();
  result.threads = runner.threads();
  if (spec.kind == CampaignKind::Validation) {
    run_validation(session, spec, runner, hooks, result);
  } else {
    run_coverage(session, spec, runner.pool(), result);
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

// --- campaign spec files ----------------------------------------------------

namespace {

std::string trim(std::string text) {
  const auto first = text.find_first_not_of(" \t\r");
  const auto last = text.find_last_not_of(" \t\r");
  if (first == std::string::npos) {
    return "";
  }
  return text.substr(first, last - first + 1);
}

[[noreturn]] void spec_error(int line, const std::string& why) {
  throw Error("spec line " + std::to_string(line) + ": " + why);
}

std::uint64_t parse_spec_u64(const std::string& value, int line) {
  const std::optional<std::uint64_t> parsed = parse_u64(value);
  if (!parsed) {
    spec_error(line, "'" + value + "' is not a non-negative integer");
  }
  return *parsed;
}

/// Narrowing guard for keys stored in sub-64-bit fields: values past `max`
/// are spec errors, never silent truncations.
std::uint64_t parse_spec_bounded(const std::string& value, int line,
                                 std::uint64_t max, const char* what) {
  const std::uint64_t parsed = parse_spec_u64(value, line);
  if (parsed > max) {
    spec_error(line, "'" + value + "' is out of range for " + what + " (max " +
                         std::to_string(max) + ")");
  }
  return parsed;
}

double parse_spec_double(const std::string& value, int line) {
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed != value.size()) {
      throw std::invalid_argument("trailing junk");
    }
    return parsed;
  } catch (const std::exception&) {
    spec_error(line, "'" + value + "' is not a number");
  }
}

bool parse_spec_bool(const std::string& value, int line) {
  if (value == "true" || value == "1" || value == "yes" || value == "on") {
    return true;
  }
  if (value == "false" || value == "0" || value == "no" || value == "off") {
    return false;
  }
  spec_error(line, "'" + value + "' is not a boolean (true/false)");
}

template <typename Enum>
Enum parse_spec_enum(const std::string& value, int line) {
  Enum out{};
  if (!from_string(value, out)) {
    spec_error(line, "'" + value + "' is not one of: " + spellings<Enum>());
  }
  return out;
}

CodeKind parse_code_kind(const std::string& value, int line) {
  if (value == "crc") {
    return CodeKind::CrcDetect;
  }
  if (value == "hamming") {
    return CodeKind::HammingCorrect;
  }
  if (value == "hamming+crc") {
    return CodeKind::HammingPlusCrc;
  }
  spec_error(line, "'" + value + "' is not one of: crc, hamming, hamming+crc");
}

void apply_spec_key(SpecFile& file, const std::string& key, const std::string& value,
                    int line) {
  CampaignSpec& c = file.campaign;
  // clang-format off
  if      (key == "fifo.depth")                  file.fifo.depth = parse_spec_u64(value, line);
  else if (key == "fifo.width")                  file.fifo.width = parse_spec_u64(value, line);
  else if (key == "protection.kind")             file.protection.kind = parse_code_kind(value, line);
  else if (key == "protection.hamming_r")        file.protection.hamming_r = static_cast<unsigned>(parse_spec_bounded(value, line, 16, "protection.hamming_r"));
  else if (key == "protection.secded")           file.protection.secded = parse_spec_bool(value, line);
  else if (key == "protection.chain_count")      file.protection.chain_count = parse_spec_u64(value, line);
  else if (key == "protection.test_width")       file.protection.test_width = parse_spec_u64(value, line);
  else if (key == "campaign.kind")               c.kind = parse_spec_enum<CampaignKind>(value, line);
  else if (key == "campaign.seed")               c.seed = parse_spec_u64(value, line);
  else if (key == "campaign.threads")            file.threads = static_cast<unsigned>(parse_spec_bounded(value, line, 4096, "campaign.threads"));
  else if (key == "campaign.shard_size")         c.shard_size = parse_spec_u64(value, line);
  else if (key == "campaign.sequences")          c.sequences = parse_spec_u64(value, line);
  else if (key == "campaign.cycles")             c.cycles = parse_spec_u64(value, line);
  else if (key == "campaign.tier")               c.tier = parse_spec_enum<ValidationTier>(value, line);
  else if (key == "campaign.mode")               c.mode = parse_spec_enum<InjectionMode>(value, line);
  else if (key == "campaign.burst_size")         c.burst_size = parse_spec_u64(value, line);
  else if (key == "campaign.burst_spread")       c.burst_spread = parse_spec_u64(value, line);
  else if (key == "campaign.checkpoint")         c.checkpoint = value;
  else if (key == "campaign.resume")             c.resume = parse_spec_bool(value, line);
  else if (key == "campaign.deadline_ms")        c.deadline_ms = parse_spec_u64(value, line);
  else if (key == "campaign.atpg.random_patterns") c.atpg.random_patterns = parse_spec_u64(value, line);
  else if (key == "campaign.atpg.max_backtracks")  c.atpg.max_backtracks = parse_spec_u64(value, line);
  else if (key == "campaign.atpg.run_podem")       c.atpg.run_podem = parse_spec_bool(value, line);
  else if (key == "corruption.noise_margin_volts") c.corruption.noise_margin_volts = parse_spec_double(value, line);
  else if (key == "corruption.margin_sigma_volts") c.corruption.margin_sigma_volts = parse_spec_double(value, line);
  else if (key == "corruption.vulnerability")      c.corruption.vulnerability = parse_spec_double(value, line);
  else if (key == "corruption.cluster_spread")     c.corruption.cluster_spread = parse_spec_u64(value, line);
  else if (key == "corruption.cluster_fraction")   c.corruption.cluster_fraction = parse_spec_double(value, line);
  else if (key == "rush.vdd_volts")                c.rush.vdd_volts = parse_spec_double(value, line);
  else if (key == "rush.resistance_ohm")           c.rush.resistance_ohm = parse_spec_double(value, line);
  else if (key == "rush.inductance_nh")            c.rush.inductance_nh = parse_spec_double(value, line);
  else if (key == "rush.capacitance_nf")           c.rush.capacitance_nf = parse_spec_double(value, line);
  else if (key == "rush.stagger_stages")           c.rush.stagger_stages = parse_spec_u64(value, line);
  else if (key == "netlist")                       file.netlist_file = value;
  else spec_error(line, "unknown key '" + key + "' (see docs/spec-reference.md for the key reference)");
  // clang-format on
}

}  // namespace

SpecFile parse_spec(std::istream& in) {
  SpecFile file;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto comment = line.find('#');
    if (comment != std::string::npos) {
      line.resize(comment);
    }
    line = trim(line);
    if (line.empty()) {
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      spec_error(lineno, "expected 'key = value', got '" + line + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      spec_error(lineno, "empty key before '='");
    }
    if (value.empty()) {
      spec_error(lineno, "empty value for key '" + key + "'");
    }
    apply_spec_key(file, key, value, lineno);
  }
  return file;
}

SpecFile parse_spec_text(const std::string& text) {
  std::istringstream in(text);
  return parse_spec(in);
}

SpecFile load_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("cannot open spec file '" + path + "'");
  }
  SpecFile file = parse_spec(in);
  if (!file.netlist_file.empty()) {
    // Relative circuit paths travel with the spec, not with the caller's
    // working directory, so `retscan run examples/external.spec` works from
    // anywhere.
    const std::filesystem::path netlist_path(file.netlist_file);
    if (netlist_path.is_relative()) {
      file.netlist_file =
          (std::filesystem::path(path).parent_path() / netlist_path).string();
    }
  }
  return file;
}

Netlist spec_base_netlist(const SpecFile& file) {
  if (!file.netlist_file.empty()) {
    return Netlist::from_verilog(file.netlist_file);
  }
  return make_fifo(file.fifo);
}

Session make_session(const SpecFile& file) {
  SessionOptions options;
  options.threads = file.threads;
  if (!file.netlist_file.empty()) {
    return Session::from_verilog(file.netlist_file, file.protection, options);
  }
  return Session(file.fifo, file.protection, options);
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  // std::stoull would silently wrap negatives to huge values; require the
  // text to be plain decimal digits, fully consumed.
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    return std::nullopt;
  }
  const std::string copy(text);
  try {
    std::size_t consumed = 0;
    const unsigned long long parsed = std::stoull(copy, &consumed, 10);
    if (consumed != copy.size()) {
      return std::nullopt;
    }
    return parsed;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace retscan
