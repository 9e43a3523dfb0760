// paper-validation: the Section IV behavioral-tier experiment on the 32x32
// FIFO (1040 flops). One long single-random campaign over many shards, one
// multiple-burst campaign, and a sweep of short campaigns over the valid
// protection variants. The short campaigns run 5 shards on the 4-thread
// pool, so shard imbalance shows; the long one has no imbalance. It runs no
// netlist, ATPG or serve code.

#include <mutex>
#include <string>
#include <vector>

#include "harness.hpp"
#include "retscan/parallel.hpp"
#include "util/fnv.hpp"

namespace perfbench {
namespace {

using namespace retscan;

// The shard plan is pinned rather than left to the runner's default, so the
// outputs (and goldens) do not move if the default does. The sweep keeps the
// shape of a 20k-sequence campaign at the 4,096 default (5 shards on 4
// threads) at a quarter of the size, so a run holds several passes.
constexpr std::size_t kShard = 1024;
constexpr std::size_t kExp1Sequences = 24 * kShard;
constexpr std::size_t kExp2Sequences = 8 * kShard;
constexpr std::size_t kSweepSequences = 5 * kShard;

struct Campaign {
  std::string name;
  ValidationConfig config;
  std::size_t sequences;
};

std::vector<Campaign> campaigns(std::uint64_t seed) {
  ValidationConfig base;
  base.fifo = FifoSpec{32, 32};
  base.chain_count = 80;
  base.kind = CodeKind::HammingPlusCrc;
  base.hamming_r = 3;

  std::vector<Campaign> out;
  ValidationConfig exp1 = base;
  exp1.mode = InjectionMode::SingleRandom;
  exp1.seed = derive_seed(seed, 1);
  out.push_back({"exp1", exp1, kExp1Sequences});

  ValidationConfig exp2 = base;
  exp2.mode = InjectionMode::MultipleBurst;
  exp2.burst_size = 4;
  exp2.burst_spread = 1;
  exp2.seed = derive_seed(seed, 2);
  out.push_back({"exp2", exp2, kExp2Sequences});

  struct Variant {
    const char* name;
    CodeKind kind;
    unsigned r;
    std::size_t chains;
  };
  // Chain counts divide the 1040 flops and, for Hamming, the data width k.
  const Variant variants[] = {
      {"sweep-crc-80", CodeKind::CrcDetect, 3, 80},
      {"sweep-hamming-80", CodeKind::HammingCorrect, 3, 80},
      {"sweep-hc-r5-52", CodeKind::HammingPlusCrc, 5, 52},
      {"sweep-hc-r5-104", CodeKind::HammingPlusCrc, 5, 104},
      {"sweep-hc-r3-208", CodeKind::HammingPlusCrc, 3, 208},
      {"sweep-hc-r3-16", CodeKind::HammingPlusCrc, 3, 16},
  };
  std::uint64_t stream = 3;
  for (const Variant& v : variants) {
    ValidationConfig config = base;
    config.kind = v.kind;
    config.hamming_r = v.r;
    config.chain_count = v.chains;
    config.mode = InjectionMode::SingleRandom;
    config.seed = derive_seed(seed, stream++);
    out.push_back({v.name, config, kSweepSequences});
  }
  return out;
}

std::uint64_t digest(const ValidationStats& stats) {
  Fnv1a h;
  for (const std::size_t value :
       {stats.sequences, stats.errors_injected, stats.sequences_with_errors,
        stats.detected, stats.corrected, stats.flagged_uncorrectable,
        stats.comparator_mismatches, stats.silent_corruptions}) {
    h.add(value);
  }
  return h.hash;
}

/// Section IV invariants, independent of any golden: every injected upset
/// is detected and none escapes silently; single upsets are also corrected
/// wherever a Hamming monitor exists.
bool section_iv_holds(const ValidationConfig& config, const ValidationStats& stats) {
  const bool detected = stats.sequences_with_errors > 0 && stats.detection_rate() == 1.0 &&
                        stats.silent_corruptions == 0;
  if (config.mode != InjectionMode::SingleRandom || config.kind == CodeKind::CrcDetect) {
    return detected;
  }
  return detected && stats.correction_rate() == 1.0 && stats.comparator_mismatches == 0;
}

/// Share of a campaign's wall time after fewer shards remain than threads.
double tail_seconds(const std::vector<double>& done_at, double start, double end,
                    std::size_t shards, unsigned threads) {
  if (shards < threads) {
    return end - start;
  }
  const std::size_t k = shards - threads;  // completions before the tail
  return k < done_at.size() ? end - done_at[k] : 0.0;
}

}  // namespace

std::vector<Pass> run_paper_validation(Context& ctx) {
  const std::vector<Campaign> plan = campaigns(ctx.seed);
  Tracer& tracer = *ctx.tracer;
  double cpu = 0.0, campaign_wall = 0.0, tail = 0.0;
  double shards_per_pass = 0.0;

  std::vector<Pass> passes = run_passes(ctx, [&] {
    Pass pass;
    Tracer::Span setup(tracer, "parallel.runner_setup");
    parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = ctx.threads});
    pass.setup = setup.stop();

    double shards = 0.0;
    for (const Campaign& campaign : plan) {
      std::mutex mutex;
      std::vector<double> done_at;
      parallel::RunControls controls;
      if (tracer.enabled()) {
        controls.progress = [&](std::size_t, std::size_t) {
          const double now = wall_now();
          const std::lock_guard<std::mutex> lock(mutex);
          done_at.push_back(now);
        };
      }
      try {
        const double cpu_start = cpu_now();
        Tracer::Span span(tracer, "parallel.run_fast");
        const double start = wall_now();
        const parallel::CampaignReport report =
            runner.run_fast(campaign.config, campaign.sequences, kShard, controls);
        const double seconds = span.stop();
        cpu += cpu_now() - cpu_start;
        campaign_wall += seconds;
        tail += tail_seconds(done_at, start, start + seconds, report.shard_count,
                             report.threads);
        shards += static_cast<double>(report.shard_count);
        pass.ops.emplace_back(campaign.name, seconds);
        pass.work += static_cast<double>(report.stats.sequences);
        ctx.ledger->finish(campaign.name,
                           report.status == CampaignStatus::Complete &&
                               report.stats.sequences == campaign.sequences &&
                               section_iv_holds(campaign.config, report.stats),
                           digest(report.stats));
      } catch (const std::exception& error) {
        ctx.ledger->fail(campaign.name, error.what());
      }
    }
    shards_per_pass = shards;
    return pass;
  });

  if (tracer.enabled()) {
    ctx.layer["parallel.shards"] = shards_per_pass;
    ctx.layer["parallel.cpu_util"] = cpu / (campaign_wall * ctx.threads);
    ctx.layer["parallel.tail_frac"] = tail / campaign_wall;
    // Single-thread behavioral throughput, outside the measured passes.
    const Campaign& exp1 = plan.front();
    FastTestbench bench(exp1.config);
    Tracer::Span span(tracer, "testbench.run_t1");
    constexpr std::size_t kProbeSequences = 4096;
    const ValidationStats stats = bench.run(kProbeSequences);
    ctx.layer["testbench.seq_per_s_t1"] = static_cast<double>(stats.sequences) / span.stop();
    ctx.ledger->oracle("single-thread probe breaks the Section IV invariants",
                       section_iv_holds(exp1.config, stats));
  }
  return passes;
}

}  // namespace perfbench
