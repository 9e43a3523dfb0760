#include "testbench/harness.hpp"

#include <algorithm>

#include "retscan/runtime.hpp"
#include "scan/scan_io.hpp"
#include "util/error.hpp"

namespace retscan {

namespace {
std::size_t chain_length_for(const ValidationConfig& config) {
  const std::size_t flops = config.fifo.flop_count();
  RETSCAN_CHECK(flops % config.chain_count == 0,
                "ValidationConfig: flop count not divisible by chain count");
  return flops / config.chain_count;
}

/// Injector seed derived as an independent stream of the campaign seed.
/// (The old `seed | 1` collided for seeds differing only in bit 0 — fatal
/// for sharded campaigns whose per-shard seeds are dense.)
std::uint64_t injector_seed(const ValidationConfig& config) {
  return Rng::derive_stream(config.seed, 0x494e4a4543544full);  // "INJECTO"
}

/// Fold one sequence into the Fig. 8 counters.
void tally(ValidationStats& stats, std::size_t errors_injected,
           const SequenceOutcome& outcome) {
  ++stats.sequences;
  stats.errors_injected += errors_injected;
  if (errors_injected != 0) {
    ++stats.sequences_with_errors;
    if (outcome.detected) {
      ++stats.detected;
    }
    if (outcome.matches && outcome.recheck_clean) {
      ++stats.corrected;
    }
    if (outcome.detected && !outcome.recheck_clean) {
      ++stats.flagged_uncorrectable;
    }
    if (!outcome.matches) {
      ++stats.comparator_mismatches;
      if (!outcome.detected) {
        ++stats.silent_corruptions;
      }
    }
  } else if (!outcome.matches) {
    ++stats.comparator_mismatches;
    ++stats.silent_corruptions;
  }
}

/// One sequence's upset set under `config.mode`. Only the rush model draws
/// from `rng`; the other modes use the LFSR injector.
std::vector<ErrorLocation> sample_upsets(const ValidationConfig& config,
                                         std::size_t chain_length,
                                         ErrorInjector& injector,
                                         const CorruptionModel* corruption, Rng& rng) {
  switch (config.mode) {
    case InjectionMode::None:
      return {};
    case InjectionMode::SingleRandom:
      return {injector.random_single()};
    case InjectionMode::MultipleBurst:
      return injector.clustered_burst(config.burst_size, config.burst_spread);
    case InjectionMode::RushModel:
      return corruption->sample(config.chain_count, chain_length, rng);
  }
  return {};
}
}  // namespace

FastTestbench::FastTestbench(const ValidationConfig& config)
    : config_(config),
      chain_length_(chain_length_for(config)),
      evaluator_(SequenceShape{config.kind, config.hamming_r, config.chain_count,
                               chain_length_}),
      rng_(config.seed) {
  injector_ = std::make_unique<ErrorInjector>(config_.chain_count, chain_length_,
                                              injector_seed(config_));
  if (config_.mode == InjectionMode::RushModel) {
    const RushCurrentModel rush(config_.rush);
    corruption_ = std::make_unique<CorruptionModel>(config_.corruption, rush);
  }
}

void FastTestbench::reseed(std::uint64_t seed) {
  config_.seed = seed;
  rng_ = Rng(seed);
  injector_ = std::make_unique<ErrorInjector>(config_.chain_count, chain_length_,
                                              injector_seed(config_));
}

ValidationStats FastTestbench::run(std::size_t count) {
  // The corruption model samples from rng_ after each sequence's chain data
  // draws in run_reference, C * ceil(L / 64) of them; skip exactly those so
  // it sees the same stream. No other mode reads rng_.
  const std::size_t data_draws = config_.mode == InjectionMode::RushModel
                                     ? config_.chain_count * ((chain_length_ + 63) / 64)
                                     : 0;
  ValidationStats stats;
  for (std::size_t seq = 0; seq < count; ++seq) {
    for (std::size_t draw = 0; draw < data_draws; ++draw) {
      rng_.next_u64();
    }
    const std::vector<ErrorLocation> errors =
        sample_upsets(config_, chain_length_, *injector_, corruption_.get(), rng_);
    tally(stats, errors.size(), evaluator_.evaluate(errors));
  }
  return stats;
}

ValidationStats FastTestbench::run_reference(std::size_t count) {
  ValidationStats stats;
  DataFullEvaluator oracle(evaluator_.shape());
  for (std::size_t seq = 0; seq < count; ++seq) {
    // Stages 1-2: reset + write identical random data to FIFO_A and FIFO_B.
    std::vector<BitVec> chains;
    chains.reserve(config_.chain_count);
    for (std::size_t c = 0; c < config_.chain_count; ++c) {
      chains.push_back(rng_.next_bits(chain_length_));
    }
    const std::vector<ErrorLocation> errors =
        sample_upsets(config_, chain_length_, *injector_, corruption_.get(), rng_);
    tally(stats, errors.size(), oracle.evaluate(std::move(chains), errors));
  }
  return stats;
}

StructuralTestbench::StructuralTestbench(const ValidationConfig& config)
    : config_(config), rng_(config.seed) {
  ProtectionConfig protection;
  protection.kind = config_.kind;
  protection.hamming_r = config_.hamming_r;
  protection.chain_count = config_.chain_count;
  protection.test_width = 4;
  design_ = std::make_unique<ProtectedDesign>(make_fifo(config_.fifo), protection);
  session_ = std::make_unique<RetentionSession>(*design_);
  // The schedule is resolved once against the environment here; reseed()
  // keeps it, so pooled reuse matches fresh construction. The session
  // constructor already ran its reset settle under the engine's default
  // schedule — drain that so telemetry reports only campaign settles under
  // the configured schedule.
  session_->sim().set_schedule(runtime_schedule(config_.schedule));
  session_->sim().invalidate_schedule_state();
  session_->sim().take_schedule_telemetry();
  injector_ = std::make_unique<ErrorInjector>(
      config_.chain_count, design_->chain_length(), injector_seed(config_));
  if (config_.mode == InjectionMode::RushModel) {
    const RushCurrentModel rush(config_.rush);
    corruption_ = std::make_unique<CorruptionModel>(config_.corruption, rush);
  }
}

void StructuralTestbench::reseed(std::uint64_t seed) {
  config_.seed = seed;
  rng_ = Rng(seed);
  injector_ = std::make_unique<ErrorInjector>(
      config_.chain_count, design_->chain_length(), injector_seed(config_));
  if (config_.mode == InjectionMode::RushModel) {
    const RushCurrentModel rush(config_.rush);
    corruption_ = std::make_unique<CorruptionModel>(config_.corruption, rush);
  }
  // The session constructors perform nothing but a reset (controls low,
  // inputs zero, one settle), so resetting the simulators restores the
  // exact fresh-construction state without recompiling the design. The
  // explicit invalidate matches construction, which always enters the first
  // shard with a forced resync armed (reset()'s own settle consumes the one
  // it arms) — without it a warm engine's first settle could take the event
  // path where a fresh engine's runs a full sweep, and the shard's
  // telemetry would depend on workspace history.
  session_->sim().reset();
  session_->sim().invalidate_schedule_state();
  session_->reset_fsm();
  if (packed_session_) {
    packed_session_->sim().reset();
    packed_session_->sim().invalidate_schedule_state();
  }
}

ScheduleTelemetry StructuralTestbench::take_telemetry() {
  ScheduleTelemetry telemetry = session_->sim().take_schedule_telemetry();
  if (packed_session_) {
    telemetry += packed_session_->sim().take_schedule_telemetry();
  }
  return telemetry;
}

ValidationStats StructuralTestbench::run_packed(std::size_t count) {
  ValidationStats stats;
  if (!packed_session_) {
    packed_session_ = std::make_unique<PackedRetentionSession>(*design_);
    packed_session_->sim().set_schedule(runtime_schedule(config_.schedule));
    packed_session_->sim().invalidate_schedule_state();
    packed_session_->sim().take_schedule_telemetry();  // construction settle
  }
  PackedSim& sim = packed_session_->sim();
  const Netlist& nl = design_->netlist();
  const std::size_t width = config_.fifo.width;
  const NetId wr_en = nl.input_net("wr_en");
  const NetId rd_en = nl.input_net("rd_en");
  std::vector<NetId> din(width), dout(width);
  for (std::size_t b = 0; b < width; ++b) {
    din[b] = nl.input_net("din" + std::to_string(b));
    dout[b] = nl.output_net("dout" + std::to_string(b));
  }

  for (std::size_t base = 0; base < count; base += PackedSim::lane_count()) {
    const std::size_t lanes = std::min(PackedSim::lane_count(), count - base);

    // Stage 1: reset both FIFOs by blanking the retained state (all lanes).
    FifoModel fifo_b(config_.fifo);
    for (const auto& chain : design_->chains().chains) {
      for (const CellId flop : chain) {
        sim.set_flop_lanes(flop, 0);
      }
    }
    sim.refresh();

    // Stage 2: Stimulus writes the same random words to every lane and to
    // the golden model.
    sim.set_input_all(rd_en, false);
    const std::size_t words =
        config_.fifo.depth / 2 + rng_.next_below(config_.fifo.depth / 2);
    for (std::size_t w = 0; w < words; ++w) {
      const BitVec word = rng_.next_bits(width);
      sim.set_input_all(wr_en, true);
      for (std::size_t b = 0; b < width; ++b) {
        sim.set_input_all(din[b], word.get(b));
      }
      sim.step();
      fifo_b.step(true, false, word);
    }
    sim.set_input_all(wr_en, false);

    // Stages 3-4: one sleep/wake protocol run, 64 corruption trials.
    std::vector<std::vector<ErrorLocation>> upsets(lanes);
    for (auto& lane_upsets : upsets) {
      lane_upsets = sample_upsets(config_, design_->chain_length(), *injector_,
                                  corruption_.get(), rng_);
    }
    const auto outcome = packed_session_->sleep_wake_cycle(upsets, &rng_);

    // Stage 5: Comparator reads every lane's FIFO against the golden model.
    LaneWord mismatch = 0;
    for (std::size_t w = 0; w < words; ++w) {
      sim.set_input_all(rd_en, true);
      sim.eval();
      const BitVec golden = fifo_b.front();
      for (std::size_t b = 0; b < width; ++b) {
        mismatch |= sim.net_lanes(dout[b]) ^ lane_broadcast(golden.get(b));
      }
      sim.step();
      fifo_b.step(false, true, BitVec(width));
    }
    sim.set_input_all(rd_en, false);

    for (std::size_t lane = 0; lane < lanes; ++lane) {
      SequenceOutcome lane_outcome;
      lane_outcome.detected = (outcome.errors_detected >> lane & 1u) != 0;
      lane_outcome.recheck_clean = (outcome.recheck_clean >> lane & 1u) != 0;
      lane_outcome.matches = (mismatch >> lane & 1u) == 0;
      tally(stats, upsets[lane].size(), lane_outcome);
    }
  }
  return stats;
}

ValidationStats StructuralTestbench::run(std::size_t count) {
  ValidationStats stats;
  Simulator& sim = session_->sim();
  const std::size_t width = config_.fifo.width;

  for (std::size_t seq = 0; seq < count; ++seq) {
    // Stage 1: reset both FIFOs by restoring a blank state.
    FifoModel fifo_b(config_.fifo);
    std::vector<BitVec> blank(config_.chain_count, BitVec(design_->chain_length()));
    scan_restore(sim, design_->chains(), blank);

    // Stage 2: Stimulus writes the same random words to both.
    sim.set_input("rd_en", false);
    const std::size_t words = config_.fifo.depth / 2 + rng_.next_below(config_.fifo.depth / 2);
    for (std::size_t w = 0; w < words; ++w) {
      const BitVec word = rng_.next_bits(width);
      sim.set_input("wr_en", true);
      for (std::size_t b = 0; b < width; ++b) {
        sim.set_input("din" + std::to_string(b), word.get(b));
      }
      sim.step();
      fifo_b.step(true, false, word);
    }
    sim.set_input("wr_en", false);

    // Stages 3-4: sleep request, wake, decode/correct.
    const auto errors = sample_upsets(config_, design_->chain_length(), *injector_,
                                      corruption_.get(), rng_);
    const auto outcome = session_->sleep_wake_cycle(errors, &rng_);

    // Stage 5: Comparator reads both FIFOs word by word.
    bool matches = true;
    for (std::size_t w = 0; w < words; ++w) {
      sim.set_input("rd_en", true);
      sim.eval();
      BitVec dout(width);
      for (std::size_t b = 0; b < width; ++b) {
        dout.set(b, sim.output("dout" + std::to_string(b)));
      }
      if (dout != fifo_b.front()) {
        matches = false;
      }
      sim.step();
      fifo_b.step(false, true, BitVec(width));
    }
    sim.set_input("rd_en", false);

    // The Proposed FSM ends in ErrorFlagged exactly when the decode flagged
    // and the recheck stayed dirty, which is how tally() counts it.
    tally(stats, errors.size(),
          {.detected = outcome.errors_detected,
           .recheck_clean = outcome.recheck_clean,
           .matches = matches});
    // Fresh sleep episode next sequence.
    session_->reset_fsm();
  }
  return stats;
}

}  // namespace retscan
