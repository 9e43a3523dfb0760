#include "parallel/campaign_runner.hpp"

#include <atomic>
#include <mutex>
#include <optional>

#include "sim/packed_sim.hpp"
#include "util/failpoint.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace retscan::parallel {

std::vector<ShardRange> plan_shards(std::size_t total, std::size_t shard_size) {
  std::vector<ShardRange> shards;
  if (total == 0) {
    return shards;
  }
  if (shard_size == 0) {
    shard_size = total;
  }
  shards.reserve((total + shard_size - 1) / shard_size);
  for (std::size_t first = 0; first < total; first += shard_size) {
    ShardRange shard;
    shard.index = shards.size();
    shard.first = first;
    shard.count = std::min(shard_size, total - first);
    shards.push_back(shard);
  }
  return shards;
}

std::uint64_t shard_seed(std::uint64_t campaign_seed, std::uint64_t index) {
  return Rng::derive_stream(campaign_seed, index);
}

/// Free-lists of warm testbenches, one tier per campaign kind. acquire()
/// hands out a reseeded warm instance when the shape matches (the steady
/// state: one instance per pool thread), otherwise constructs fresh;
/// release() returns it for the next shard. A shape change retires the old
/// pool — campaigns against a different design rebuild once, as before.
struct CampaignRunner::WorkspacePool {
  template <typename Bench>
  struct Tier {
    std::mutex mutex;
    /// The configuration the free list was built for, seed zeroed: a warm
    /// testbench serves any config equal to it up to the seed.
    std::optional<ValidationConfig> shape;
    std::vector<std::unique_ptr<Bench>> free_list;

    std::unique_ptr<Bench> acquire(const ValidationConfig& config) {
      ValidationConfig key = config;
      key.seed = 0;
      std::unique_ptr<Bench> warm;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (shape != key) {
          free_list.clear();
          shape = key;
        } else if (!free_list.empty()) {
          warm = std::move(free_list.back());
          free_list.pop_back();
        }
      }
      if (warm) {
        warm->reseed(config.seed);  // outside the lock: resets a simulator
        return warm;
      }
      return std::make_unique<Bench>(config);
    }

    void release(std::unique_ptr<Bench> bench) {
      const std::lock_guard<std::mutex> lock(mutex);
      free_list.push_back(std::move(bench));
    }
  };

  Tier<FastTestbench> fast;
  Tier<StructuralTestbench> structural;
};

CampaignRunner::CampaignRunner(const CampaignOptions& options)
    : pool_(options.threads),
      workspaces_(std::make_unique<WorkspacePool>()) {}

CampaignRunner::~CampaignRunner() = default;

namespace {

/// Per-shard result pair: campaign statistics plus the shard's drained
/// schedule telemetry, merged in shard order like everything else.
struct ShardOutcome {
  ValidationStats stats;
  ScheduleTelemetry telemetry;
  ShardOutcome& operator+=(const ShardOutcome& other) {
    stats += other.stats;
    telemetry += other.telemetry;
    return *this;
  }
};

/// ShardOutcome ⇄ JournalRecord: the journal stores raw u64 counters (it is
/// a util-layer facility with no view of the testbench types), so the
/// flattening lives here, field by field in declaration order.
JournalRecord encode_outcome(std::uint64_t shard_index,
                             const ShardOutcome& outcome) {
  JournalRecord record;
  record.shard_index = shard_index;
  const ValidationStats& s = outcome.stats;
  const std::uint64_t stats[JournalRecord::kStatsWords] = {
      s.sequences,  s.errors_injected,       s.sequences_with_errors,
      s.detected,   s.corrected,             s.flagged_uncorrectable,
      s.comparator_mismatches, s.silent_corruptions};
  const ScheduleTelemetry& t = outcome.telemetry;
  const std::uint64_t telemetry[JournalRecord::kTelemetryWords] = {
      t.event_sweeps, t.full_sweeps,  t.full_sweep_fallbacks,
      t.event_instrs, t.sweep_instrs, t.instr_capacity};
  for (std::size_t i = 0; i < JournalRecord::kStatsWords; ++i) {
    record.stats[i] = stats[i];
  }
  for (std::size_t i = 0; i < JournalRecord::kTelemetryWords; ++i) {
    record.telemetry[i] = telemetry[i];
  }
  return record;
}

ShardOutcome decode_outcome(const JournalRecord& record) {
  ShardOutcome outcome;
  ValidationStats& s = outcome.stats;
  s.sequences = record.stats[0];
  s.errors_injected = record.stats[1];
  s.sequences_with_errors = record.stats[2];
  s.detected = record.stats[3];
  s.corrected = record.stats[4];
  s.flagged_uncorrectable = record.stats[5];
  s.comparator_mismatches = record.stats[6];
  s.silent_corruptions = record.stats[7];
  ScheduleTelemetry& t = outcome.telemetry;
  t.event_sweeps = record.telemetry[0];
  t.full_sweeps = record.telemetry[1];
  t.full_sweep_fallbacks = record.telemetry[2];
  t.event_instrs = record.telemetry[3];
  t.sweep_instrs = record.telemetry[4];
  t.instr_capacity = record.telemetry[5];
  return outcome;
}

/// Shared campaign driver — the one copy of the shard/merge logic: per-shard
/// config with a derived seed stream, run_shard runs a testbench tier
/// against it, per-shard outcomes merge in shard-index order. The
/// RunControls hooks slot in around that invariant: journaled shards merge
/// from the checkpoint instead of rerunning, a cancelled token (or a
/// Cancelled thrown out of a settle loop) leaves shards incomplete rather
/// than failing the campaign, and every completed shard is appended to the
/// journal the moment it finishes. Because the shard plan, the per-shard
/// seeds and the merge order never depend on which shards came from the
/// journal, a resumed campaign is bit-identical to an uninterrupted one.
template <typename RunShard>
CampaignReport run_campaign(CampaignRunner& runner, const ValidationConfig& config,
                            std::size_t count, std::size_t shard_size,
                            const RunControls& controls, RunShard&& run_shard) {
  CampaignReport report;
  report.threads = runner.threads();
  const std::vector<ShardRange> shards = plan_shards(count, shard_size);
  report.shard_count = shards.size();
  if (controls.journal != nullptr) {
    controls.journal->bind_plan(count, shard_size, shards.size());
  }

  std::vector<std::optional<ShardOutcome>> partial(shards.size());
  std::atomic<std::size_t> resumed{0};
  std::atomic<std::size_t> settled{0};
  const auto note_progress = [&] {
    if (controls.progress) {
      controls.progress(settled.fetch_add(1, std::memory_order_relaxed) + 1,
                        shards.size());
    }
  };
  const std::function<void(std::size_t)> shard_body = [&](std::size_t s) {
    if (controls.journal != nullptr) {
      if (const std::optional<JournalRecord> record =
              controls.journal->find(shards[s].index)) {
        partial[s] = decode_outcome(*record);
        resumed.fetch_add(1, std::memory_order_relaxed);
        note_progress();
        return;
      }
    }
    if (controls.cancel != nullptr && controls.cancel->cancelled()) {
      return;  // skip: merged below as "not completed"
    }
    failpoint("shard.run");
    ValidationConfig shard_config = config;
    shard_config.seed = shard_seed(config.seed, shards[s].index);
    ShardOutcome outcome;
    try {
      outcome = run_shard(shard_config, shards[s].count);
    } catch (const Cancelled&) {
      return;  // interrupted mid-shard (settle-loop cancellation point)
    }
    if (controls.journal != nullptr) {
      controls.journal->append(encode_outcome(shards[s].index, outcome));
    }
    partial[s] = outcome;
    note_progress();
  };
  // The cancel token is deliberately NOT handed to the pool: the body must
  // still run for every shard so journal-resumed outcomes merge even under
  // cancellation; the body's own poll skips the actual work.
  runner.pool().parallel_for(shards.size(), shard_body);

  ShardOutcome merged;
  std::size_t completed = 0;
  for (const std::optional<ShardOutcome>& outcome : partial) {
    if (outcome) {
      merged += *outcome;
      ++completed;
    }
  }
  report.stats = merged.stats;
  report.telemetry = merged.telemetry;
  report.shards_completed = completed;
  report.shards_resumed = resumed.load(std::memory_order_relaxed);
  if (completed == shards.size()) {
    report.status = CampaignStatus::Complete;
  } else if (controls.cancel != nullptr &&
             controls.cancel->why() == CancelReason::Deadline) {
    report.status = CampaignStatus::Timeout;
  } else {
    report.status = CampaignStatus::Cancelled;
  }
  return report;
}

/// Run one shard on a pooled workspace: acquire (reseed or build), run,
/// release. If the run throws, the instance is simply dropped — the pool
/// never sees a half-run testbench. Telemetry is drained before release so
/// a warm instance never carries counters across shards.
template <typename Tier, typename Run>
ShardOutcome run_on_tier(Tier& tier, const ValidationConfig& shard_config,
                         Run&& run) {
  auto bench = tier.acquire(shard_config);
  // Discard acquire-time counters (construction / reseed resync settles) so
  // a shard's telemetry covers exactly its own run. Without this, warm and
  // fresh workspaces report different counts for the same shard — and which
  // shards land on warm instances is a scheduling accident, which would make
  // the merged telemetry vary across thread counts and break the
  // kill/resume byte-identical contract.
  (void)bench->take_telemetry();
  ShardOutcome outcome;
  outcome.stats = run(*bench);
  outcome.telemetry = bench->take_telemetry();
  tier.release(std::move(bench));
  return outcome;
}

}  // namespace

CampaignReport CampaignRunner::run_fast(const ValidationConfig& config,
                                        std::size_t count, std::size_t shard_size,
                                        const RunControls& controls) {
  if (shard_size == 0) {
    shard_size = CampaignOptions::shard_size;
  }
  return run_campaign(*this, config, count, shard_size, controls,
                      [this](const ValidationConfig& shard_config, std::size_t n) {
                        return run_on_tier(workspaces_->fast, shard_config,
                                           [n](FastTestbench& b) { return b.run(n); });
                      });
}

CampaignReport CampaignRunner::run_structural_packed(const ValidationConfig& config,
                                                     std::size_t count,
                                                     std::size_t shard_size,
                                                     const RunControls& controls) {
  if (shard_size == 0) {
    shard_size = CampaignOptions::structural_shard_size;
  }
  const std::size_t lanes = PackedSim::lane_count();
  shard_size = (shard_size + lanes - 1) / lanes * lanes;
  return run_campaign(
      *this, config, count, shard_size, controls,
      [this](const ValidationConfig& shard_config, std::size_t n) {
        return run_on_tier(workspaces_->structural, shard_config,
                           [n](StructuralTestbench& b) { return b.run_packed(n); });
      });
}

}  // namespace retscan::parallel
