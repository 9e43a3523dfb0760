#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuits/fifo.hpp"
#include "coding/protectors.hpp"
#include "core/protected_design.hpp"
#include "power/corruption.hpp"
#include "sim/schedule.hpp"
#include "testbench/sequence.hpp"
#include "util/rng.hpp"

namespace retscan {

/// How the injector perturbs each test sequence (Fig. 7).
enum class InjectionMode {
  None,           ///< control experiments
  SingleRandom,   ///< one LFSR-selected upset per sequence (experiment 1)
  MultipleBurst,  ///< clustered multi-bit burst per sequence (experiment 2)
  RushModel,      ///< upsets sampled from the electrical corruption model
};

/// Configuration of the validation campaign (Fig. 8 testbench).
struct ValidationConfig {
  FifoSpec fifo{32, 32};
  std::size_t chain_count = 80;
  CodeKind kind = CodeKind::HammingPlusCrc;
  unsigned hamming_r = 3;
  InjectionMode mode = InjectionMode::SingleRandom;
  std::size_t burst_size = 4;
  std::size_t burst_spread = 2;
  std::uint64_t seed = 1;
  /// Settle schedule for the structural simulators (Auto lets each engine
  /// probe its own activity). Campaign statistics are bit-identical under
  /// every mode; this only selects how settles are computed. Campaigns
  /// leave it at Auto and pin Sweep for the scalar Reference oracle.
  Schedule schedule = Schedule::Auto;
  /// Used only with InjectionMode::RushModel.
  CorruptionParameters corruption{};
  RushParameters rush{};

  bool operator==(const ValidationConfig&) const = default;
};

/// Counter block of Fig. 8: every observable event of the campaign.
struct ValidationStats {
  std::size_t sequences = 0;
  std::size_t errors_injected = 0;
  std::size_t sequences_with_errors = 0;
  std::size_t detected = 0;              ///< monitor raised its error output
  std::size_t corrected = 0;             ///< recheck clean AND state matches FIFO_B
  std::size_t flagged_uncorrectable = 0; ///< monitor escalated (ErrorFlagged)
  std::size_t comparator_mismatches = 0; ///< FIFO_A data != FIFO_B data at readout
  /// Errors that reached the comparator without the monitor noticing —
  /// the reliability escape count. The paper reports zero.
  std::size_t silent_corruptions = 0;

  double detection_rate() const {
    return sequences_with_errors == 0
               ? 1.0
               : static_cast<double>(detected) / static_cast<double>(sequences_with_errors);
  }
  double correction_rate() const {
    return sequences_with_errors == 0
               ? 1.0
               : static_cast<double>(corrected) / static_cast<double>(sequences_with_errors);
  }

  /// Shard reduction: counters are pure sums, so merging per-shard stats in
  /// shard order reproduces the single-threaded campaign exactly.
  ValidationStats& operator+=(const ValidationStats& other) {
    sequences += other.sequences;
    errors_injected += other.errors_injected;
    sequences_with_errors += other.sequences_with_errors;
    detected += other.detected;
    corrected += other.corrected;
    flagged_uncorrectable += other.flagged_uncorrectable;
    comparator_mismatches += other.comparator_mismatches;
    silent_corruptions += other.silent_corruptions;
    return *this;
  }

  bool operator==(const ValidationStats&) const = default;
};

/// Behavioral (fast) testbench: the Fig. 8 protocol on the behavioral
/// protectors, equivalent in outcome to the structural path (proven by the
/// core test suite's structural-vs-behavioral test). run() evaluates each
/// sequence from its error pattern alone (SyndromeEvaluator), fast enough
/// for the paper's 100M-sequence campaign; run_reference() is the data-full
/// loop it is checked against, and gives bit-identical statistics.
class FastTestbench {
 public:
  explicit FastTestbench(const ValidationConfig& config);

  const ValidationConfig& config() const { return config_; }
  std::size_t chain_length() const { return chain_length_; }

  /// Run `count` test sequences and accumulate statistics.
  ValidationStats run(std::size_t count);

  /// The same campaign on data: each sequence draws C chains of random
  /// data from the stream, encodes, flips, decodes twice and compares
  /// (DataFullEvaluator). The oracle of run(), and what
  /// Backend::Reference runs on the behavioral tier.
  ValidationStats run_reference(std::size_t count);

  /// Rewind to the state of a freshly constructed testbench with the same
  /// shape but `seed`. This is what makes persistent per-thread workspaces
  /// possible: a pooled campaign reseeds a warm testbench per shard instead
  /// of rebuilding it, with bit-identical results (asserted by
  /// test_parallel's persistent-workspace case). The per-shape syndrome
  /// tables are kept.
  void reseed(std::uint64_t seed);

  /// Behavioral runs have no gate-level settles; always empty. Kept so the
  /// campaign runner drains telemetry uniformly across testbench tiers.
  ScheduleTelemetry take_telemetry() { return ScheduleTelemetry{}; }

 private:
  ValidationConfig config_;
  std::size_t chain_length_;
  SyndromeEvaluator evaluator_;
  Rng rng_;
  std::unique_ptr<ErrorInjector> injector_;
  std::unique_ptr<CorruptionModel> corruption_;
};

/// Structural (cycle-accurate) testbench: FIFO_A is a simulated
/// ProtectedDesign including error injection; FIFO_B is the behavioral
/// golden model; Stimulus writes identical random words to both; the
/// Comparator reads both back after the sleep/wake cycle (the exact 5-stage
/// sequence of Section IV). Slower — use for thousands of sequences.
class StructuralTestbench {
 public:
  explicit StructuralTestbench(const ValidationConfig& config);

  const ProtectedDesign& design() const { return *design_; }

  ValidationStats run(std::size_t count);

  /// Bit-parallel campaign: batches of 64 corruption trials share one
  /// simulated design. Each batch writes one random stimulus (broadcast to
  /// every lane), then runs the sleep/wake protocol once with 64 independent
  /// upset sets — the comparator and monitor outcomes are read per lane.
  /// Statistically equivalent to run() (same protocol, same injectors) at a
  /// fraction of the simulation cost; this is the paper-scale path.
  ValidationStats run_packed(std::size_t count);

  /// Rewind to a freshly constructed testbench with the same shape but
  /// `seed`: the simulators return to their power-on state (construction
  /// writes nothing beyond a reset), the protocol FSM restarts, and the
  /// random streams are re-derived. The expensive compiled design and
  /// sessions are kept — this is the persistent-workspace fast path of the
  /// pooled campaign runner.
  void reseed(std::uint64_t seed);

  /// Drain accumulated settle-schedule telemetry from both simulators
  /// (scalar session + packed session when it exists); counters reset.
  ScheduleTelemetry take_telemetry();

 private:
  ValidationConfig config_;
  std::unique_ptr<ProtectedDesign> design_;
  std::unique_ptr<RetentionSession> session_;
  std::unique_ptr<PackedRetentionSession> packed_session_;
  Rng rng_;
  std::unique_ptr<ErrorInjector> injector_;
  std::unique_ptr<CorruptionModel> corruption_;
};

}  // namespace retscan
