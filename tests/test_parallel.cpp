// The retscan::parallel orchestration layer: ThreadPool semantics
// (completion, exception propagation, cancellation, concurrent callers,
// the dispatch failpoint, clean shutdown),
// deterministic shard planning/seeding, and — the load-bearing contract —
// thread-count invariance: the same campaign seed must produce
// bit-identical statistics at 1, 2 and 8 threads.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/scan_test.hpp"
#include "circuits/fifo.hpp"
#include "core/protected_design.hpp"
#include "parallel/campaign_runner.hpp"
#include "testbench/harness.hpp"
#include "util/cancel.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace retscan;

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 500;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForPropagatesExceptionAndPoolSurvives) {
  ThreadPool pool(4);
  // Every body throws, carrying its own index as the message. The contract:
  // the first failure (by index, not wall clock) is what propagates, and
  // bodies not yet started are abandoned rather than run to completion.
  std::vector<std::atomic<int>> threw(64);
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      threw[i].store(1, std::memory_order_relaxed);
      throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error& error) {
    std::size_t lowest = 64;
    for (std::size_t i = 0; i < 64; ++i) {
      if (threw[i].load(std::memory_order_relaxed) != 0) {
        lowest = i;
        break;
      }
    }
    ASSERT_LT(lowest, 64u);
    EXPECT_EQ(error.what(), std::to_string(lowest));
  }
  // The pool stays usable afterwards; destruction at scope end is the
  // shutdown-under-exceptions check.
  std::atomic<std::size_t> ran{0};
  pool.parallel_for(32, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 32u);

  // The inline (serial-pool) path stops at the first failure — bodies after
  // the throwing index never run.
  ThreadPool solo(1);
  std::size_t solo_ran = 0;
  EXPECT_THROW(solo.parallel_for(16,
                                 [&](std::size_t i) {
                                   ++solo_ran;
                                   if (i == 2) {
                                     throw std::runtime_error("inline shard");
                                   }
                                 }),
               std::runtime_error);
  EXPECT_EQ(solo_ran, 3u);
}

TEST(ThreadPool, ParallelForSkipsBodiesOnceTokenIsCancelled) {
  // A pre-cancelled token is the deterministic case: no body may run, on
  // either dispatch path, and the call returns normally (cancellation is a
  // skip, not a failure — the campaign layer decides what partial means).
  CancelToken cancel;
  cancel.request_cancel();

  ThreadPool pooled(4);
  std::atomic<std::size_t> ran{0};
  pooled.parallel_for(64, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  }, &cancel);
  EXPECT_EQ(ran.load(), 0u);

  ThreadPool solo(1);
  std::size_t solo_ran = 0;
  solo.parallel_for(16, [&](std::size_t) { ++solo_ran; }, &cancel);
  EXPECT_EQ(solo_ran, 0u);

  // A fresh token lets everything through.
  CancelToken open;
  solo.parallel_for(16, [&](std::size_t) { ++solo_ran; }, &open);
  EXPECT_EQ(solo_ran, 16u);
}

TEST(ThreadPool, SerialAndNestedCallsRunInline) {
  ThreadPool pool(1);
  std::size_t sum = 0;  // no atomics needed: single-thread pools run inline
  pool.parallel_for(10, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 45u);

  ThreadPool outer(2);
  std::atomic<std::size_t> total{0};
  outer.parallel_for(4, [&](std::size_t) {
    // Nested parallel_for on the same pool must not deadlock a worker.
    outer.parallel_for(8, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 32u);
}

// Concurrent callers are separate jobs on one pool; each keeps the whole
// parallel_for contract while the workers interleave them.

TEST(ThreadPool, ConcurrentCallersEachRunEveryBodyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kBodies = 64;
  std::vector<std::atomic<int>> a(kBodies), b(kBodies);
  std::thread other([&] {
    pool.parallel_for(kBodies, [&](std::size_t i) { b[i].fetch_add(1); });
  });
  pool.parallel_for(kBodies, [&](std::size_t i) { a[i].fetch_add(1); });
  other.join();
  for (std::size_t i = 0; i < kBodies; ++i) {
    EXPECT_EQ(a[i].load(), 1) << i;
    EXPECT_EQ(b[i].load(), 1) << i;
  }
}

// Round-robin across callers: a job posted while another still has a long
// tail is served beside it, not after it.
TEST(ThreadPool, LaterCallerIsNotQueuedBehindAnEarlierJob) {
  ThreadPool pool(4);
  constexpr std::size_t kLong = 2000;
  std::atomic<std::size_t> long_started{0};
  std::atomic<bool> short_done{false};
  std::thread long_caller([&] {
    pool.parallel_for(kLong, [&](std::size_t) {
      long_started.fetch_add(1);
      if (!short_done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  });
  while (long_started.load() == 0) {
    std::this_thread::yield();
  }
  pool.parallel_for(8, [](std::size_t) {});
  const std::size_t started = long_started.load();
  short_done.store(true);
  long_caller.join();
  // Queued behind the long job, the short one could only return once every
  // long body had started.
  EXPECT_LT(started, kLong);
}

TEST(ThreadPool, ThrowingJobRethrowsLowestIndexBesideAnotherCaller) {
  ThreadPool pool(2);
  std::atomic<int> other_ran{0};
  std::thread other([&] {
    pool.parallel_for(200, [&](std::size_t) { other_ran.fetch_add(1); });
  });
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(100, [&](std::size_t i) {
      if (i == 3 || i == 5) {
        throw Error("shard " + std::to_string(i) + " exploded");
      }
      ran.fetch_add(1);
    });
    FAIL() << "expected the body's exception";
  } catch (const Error& error) {
    // Bodies are handed out in index order, so 3 always runs; if 5 threw
    // too, the lower index still wins.
    EXPECT_STREQ(error.what(), "shard 3 exploded");
  }
  // A throw skips the bodies not yet handed out. Two workers cannot reach
  // 6 before 3 or 5 has thrown, so at most 0-2 and 4 ran.
  EXPECT_LE(ran.load(), 4);
  other.join();
  EXPECT_EQ(other_ran.load(), 200);  // the other caller's job is untouched
  // The pool remains usable after an abandoned job.
  std::atomic<int> again{0};
  pool.parallel_for(10, [&](std::size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 10);
}

TEST(ThreadPool, TokenCancelledMidRunSkipsUnstartedBodies) {
  ThreadPool pool(2);
  CancelToken token;
  std::atomic<int> ran{0};
  pool.parallel_for(
      1000,
      [&](std::size_t) {
        token.request_cancel();
        ran.fetch_add(1);
      },
      &token);
  EXPECT_GT(ran.load(), 0);
  // At most one body per worker starts before the token is seen.
  EXPECT_LE(ran.load(), 2);
}

// The pool.dispatch failpoint fires once per pooled call, before any body
// is handed out: the call throws, nothing runs, and the pool carries on.
TEST(ThreadPool, DispatchFailpointRunsNoBodyAndPoolSurvives) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  ::setenv("RETSCAN_FAILPOINTS", "pool.dispatch=throw", 1);
  failpoints_refresh();
  try {
    pool.parallel_for(64, [&](std::size_t) { ran.fetch_add(1); });
    ADD_FAILURE() << "the armed dispatch failpoint did not throw";
  } catch (const Error& error) {
    EXPECT_STREQ(error.what(), "failpoint pool.dispatch");
  }
  ::unsetenv("RETSCAN_FAILPOINTS");
  failpoints_refresh();
  EXPECT_EQ(ran.load(), 0);
  pool.parallel_for(64, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64);
}

TEST(ShardPlan, CoversTotalExactlyOnceIndependentOfThreads) {
  const auto shards = parallel::plan_shards(1000, 256);
  ASSERT_EQ(shards.size(), 4u);
  std::size_t expected_first = 0;
  for (const auto& shard : shards) {
    EXPECT_EQ(shard.first, expected_first);
    expected_first += shard.count;
  }
  EXPECT_EQ(expected_first, 1000u);
  EXPECT_EQ(shards.back().count, 232u);

  EXPECT_TRUE(parallel::plan_shards(0, 64).empty());
  EXPECT_EQ(parallel::plan_shards(5, 0).size(), 1u);  // 0 → one shard
}

TEST(ShardSeeds, AreDistinctStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    seeds.insert(parallel::shard_seed(2024, i));
  }
  EXPECT_EQ(seeds.size(), 4096u);
  EXPECT_NE(parallel::shard_seed(1, 0), parallel::shard_seed(2, 0));
  EXPECT_NE(Rng::derive_stream(0, 0), 0u);
}

namespace {
ValidationConfig fast_config() {
  ValidationConfig config;
  config.fifo = FifoSpec{32, 32};
  config.chain_count = 80;
  config.mode = InjectionMode::SingleRandom;
  config.seed = 99;
  return config;
}
}  // namespace

TEST(CampaignRunner, FastCampaignIsThreadCountInvariant) {
  constexpr std::size_t kSequences = 2048;
  constexpr std::size_t kShard = 256;
  const ValidationConfig config = fast_config();

  parallel::CampaignReport reports[3];
  const unsigned thread_counts[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    parallel::CampaignRunner runner(
        parallel::CampaignOptions{.threads = thread_counts[i]});
    reports[i] = runner.run_fast(config, kSequences, kShard);
    EXPECT_EQ(reports[i].threads, thread_counts[i]);
    EXPECT_EQ(reports[i].shard_count, kSequences / kShard);
  }
  EXPECT_TRUE(reports[0].stats == reports[1].stats);
  EXPECT_TRUE(reports[0].stats == reports[2].stats);
  EXPECT_EQ(reports[0].stats.sequences, kSequences);
  EXPECT_EQ(reports[0].stats.detection_rate(), 1.0);
  EXPECT_EQ(reports[0].stats.correction_rate(), 1.0);
  EXPECT_EQ(reports[0].stats.silent_corruptions, 0u);
}

// Satellite regression for the exception-semantics fix, run under TSan via
// this binary: a shard that throws (injected through the failpoint harness,
// exactly how the resilience CI job arms it) must cancel the rest of the
// campaign, propagate, and leave the runner reusable — a clean rerun on the
// same warm runner reproduces an undisturbed runner's statistics.
TEST(CampaignRunner, FailpointThrownShardCancelsCampaignAndRunnerSurvives) {
  const ValidationConfig config = fast_config();
  parallel::CampaignRunner baseline(parallel::CampaignOptions{.threads = 4});
  const ValidationStats expected = baseline.run_fast(config, 1024, 128).stats;

  ::setenv("RETSCAN_FAILPOINTS", "shard.run=throw@2", 1);
  failpoints_refresh();
  parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = 4});
  EXPECT_THROW(runner.run_fast(config, 1024, 128), Error);
  ::unsetenv("RETSCAN_FAILPOINTS");
  failpoints_refresh();

  const ValidationStats rerun = runner.run_fast(config, 1024, 128).stats;
  EXPECT_TRUE(rerun == expected);
}

TEST(CampaignRunner, BurstCampaignIsThreadCountInvariant) {
  ValidationConfig config = fast_config();
  config.mode = InjectionMode::MultipleBurst;
  config.burst_size = 4;
  config.burst_spread = 1;

  parallel::CampaignRunner one(parallel::CampaignOptions{.threads = 1});
  parallel::CampaignRunner eight(parallel::CampaignOptions{.threads = 8});
  const ValidationStats a = one.run_fast(config, 1024, 128).stats;
  const ValidationStats b = eight.run_fast(config, 1024, 128).stats;
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.detection_rate(), 1.0);
  EXPECT_EQ(a.silent_corruptions, 0u);
}

TEST(CampaignRunner, StructuralPackedIsThreadCountInvariant) {
  ValidationConfig gate;
  gate.fifo = FifoSpec{32, 2};
  gate.chain_count = 8;
  gate.mode = InjectionMode::SingleRandom;
  gate.seed = 5;

  parallel::CampaignRunner one(parallel::CampaignOptions{.threads = 1});
  parallel::CampaignRunner three(parallel::CampaignOptions{.threads = 3});
  const ValidationStats a = one.run_structural_packed(gate, 128, 64).stats;
  const ValidationStats b = three.run_structural_packed(gate, 128, 64).stats;
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.sequences, 128u);
  EXPECT_EQ(a.detection_rate(), 1.0);
  EXPECT_EQ(a.correction_rate(), 1.0);
}

namespace {
/// Protected FIFO + constrained combinational frame, as the testers use it.
struct FrameFixture {
  ProtectedDesign design;
  CombinationalFrame frame;

  FrameFixture()
      : design(make_fifo(FifoSpec{32, 2}),
               [] {
                 ProtectionConfig config;
                 config.kind = CodeKind::HammingPlusCrc;
                 config.chain_count = 8;
                 config.test_width = 4;
                 return config;
               }()),
        frame(design.netlist()) {
    for (const char* name : {"se", "retain", "mon_en", "mon_decode", "mon_clear",
                             "sig_capture", "sig_compare", "test_mode"}) {
      frame.constrain(name, false);
    }
  }
};
}  // namespace

// Persistent per-thread workspaces: a runner reuses compiled testbenches
// across campaigns instead of rebuilding them per shard. Reuse must be
// invisible — rerunning the same campaign on a warm runner, interleaving
// other shapes in between, and changing only the seed must all reproduce a
// cold runner's statistics bit-for-bit, on both tiers and at any thread
// count.
TEST(CampaignRunner, PersistentWorkspacesAreBitIdenticalAcrossReuse) {
  const ValidationConfig config = fast_config();
  ValidationConfig burst = fast_config();
  burst.mode = InjectionMode::MultipleBurst;
  burst.burst_size = 4;
  burst.burst_spread = 1;
  ValidationConfig reseeded = fast_config();
  reseeded.seed = 1234;

  parallel::CampaignRunner cold(parallel::CampaignOptions{.threads = 2});
  const ValidationStats first = cold.run_fast(config, 1024, 128).stats;
  const ValidationStats burst_cold = cold.run_fast(burst, 1024, 128).stats;
  const ValidationStats reseeded_cold = cold.run_fast(reseeded, 1024, 128).stats;

  // Warm reuse: same runner, same campaign again — workspaces recycled.
  EXPECT_TRUE(cold.run_fast(config, 1024, 128).stats == first);
  // Interleave a different shape, then return to the original: the pool is
  // keyed by campaign shape, so neither run may contaminate the other.
  EXPECT_TRUE(cold.run_fast(burst, 1024, 128).stats == burst_cold);
  EXPECT_TRUE(cold.run_fast(config, 1024, 128).stats == first);
  // Same shape, different seed: reseed of a recycled workspace must equal a
  // fresh construction.
  EXPECT_TRUE(cold.run_fast(reseeded, 1024, 128).stats == reseeded_cold);

  // Warm runners at other thread counts agree with the cold baseline.
  parallel::CampaignRunner wide(parallel::CampaignOptions{.threads = 8});
  (void)wide.run_fast(burst, 1024, 128);  // warm the pool with another shape
  EXPECT_TRUE(wide.run_fast(config, 1024, 128).stats == first);
  EXPECT_TRUE(wide.run_fast(reseeded, 1024, 128).stats == reseeded_cold);

  // Structural tier: same contract through the packed gate-level testbench.
  ValidationConfig gate;
  gate.fifo = FifoSpec{32, 2};
  gate.chain_count = 8;
  gate.mode = InjectionMode::SingleRandom;
  gate.seed = 5;
  ValidationConfig gate_reseeded = gate;
  gate_reseeded.seed = 17;

  parallel::CampaignRunner gate_cold(parallel::CampaignOptions{.threads = 3});
  const ValidationStats gate_first =
      gate_cold.run_structural_packed(gate, 128, 64).stats;
  const ValidationStats gate_other =
      gate_cold.run_structural_packed(gate_reseeded, 128, 64).stats;
  EXPECT_TRUE(gate_cold.run_structural_packed(gate, 128, 64).stats == gate_first);
  EXPECT_TRUE(
      gate_cold.run_structural_packed(gate_reseeded, 128, 64).stats == gate_other);
  parallel::CampaignRunner gate_warm(parallel::CampaignOptions{.threads = 1});
  (void)gate_warm.run_structural_packed(gate_reseeded, 128, 64);
  EXPECT_TRUE(gate_warm.run_structural_packed(gate, 128, 64).stats == gate_first);
}

TEST(FaultSimParallel, ShardMergeMatchesSerialFaultCoverage) {
  FrameFixture fixture;
  const auto all = enumerate_faults(fixture.design.netlist());
  const auto faults = collapse_faults(fixture.design.netlist(), all);

  Rng rng(7);
  std::vector<BitVec> patterns;
  for (int i = 0; i < 100; ++i) {
    patterns.push_back(fixture.frame.random_pattern(rng));
  }

  const FaultSimResult serial = fault_simulate(fixture.frame, faults, patterns);
  ThreadPool pool(4);
  const FaultSimResult pooled =
      fault_simulate(fixture.frame, faults, patterns, pool, 32);

  EXPECT_EQ(pooled.total_faults, serial.total_faults);
  EXPECT_EQ(pooled.detected, serial.detected);
  EXPECT_EQ(pooled.detected_by, serial.detected_by);
  EXPECT_GT(serial.detected, 0u);
}

TEST(ScanTestParallel, PooledDeliveryMatchesSerialPacked) {
  FrameFixture fixture;
  Rng rng(11);
  std::vector<BitVec> patterns;
  for (int i = 0; i < 70; ++i) {  // non-multiple of 64: exercises tail batch
    patterns.push_back(fixture.frame.random_pattern(rng));
  }

  const ScanPorts ports = ScanPorts::test_mode_of(fixture.design);
  // Serial: the 70 patterns as one shard (two batches) on one thread.
  ThreadPool one(1);
  const ScanTestResult serial =
      deliver_scan_test_packed(ports, fixture.frame, patterns, one, 128);
  ThreadPool pool(4);
  const ScanTestResult pooled =
      deliver_scan_test_packed(ports, fixture.frame, patterns, pool, 64);

  EXPECT_EQ(pooled.patterns_applied, serial.patterns_applied);
  EXPECT_EQ(pooled.mismatches, serial.mismatches);
  EXPECT_EQ(pooled.patterns_applied, patterns.size());
  EXPECT_TRUE(pooled.all_passed());
}
