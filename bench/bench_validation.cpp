// Reproduces the Section IV FPGA validation (Fig. 8 testbench):
//  * experiment 1 — one random error per test sequence: all detected, all
//    corrected, zero comparator mismatches;
//  * experiment 2 — clustered multiple errors per sequence: all detected,
//    none silently accepted; Hamming alone cannot repair the bursts.
// The paper runs 100M sequences on a VirtexII-Pro; the behavioral tier
// reproduces the protocol bit-exactly (proven against the gate-level model
// in the test suite) at a default of 200k sequences (RETSCAN_SEQUENCES
// overrides). A gate-level confirmation pass runs a smaller count.
//
// Campaigns run on the retscan::parallel shard-map-reduce layer: the same
// seed yields bit-identical statistics at every thread count (asserted
// below by re-running experiment 1 serially), and the threads knob
// (RETSCAN_THREADS) multiplies the 64-lane bit-parallel throughput by
// near-linear core scaling — threads/shards/efficiency land in
// BENCH_validation.json.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "retscan/parallel.hpp"
#include "retscan/campaign.hpp"
#include "retscan/netlist.hpp"
#include "retscan/serve.hpp"
#include "retscan/sim.hpp"

using namespace retscan;

namespace {
void report(const char* name, const ValidationStats& stats) {
  std::cout << name << ": sequences " << stats.sequences << ", with-errors "
            << stats.sequences_with_errors << ", injected " << stats.errors_injected
            << "\n  detected " << stats.detected << " (rate "
            << 100.0 * stats.detection_rate() << "%), corrected " << stats.corrected
            << " (rate " << 100.0 * stats.correction_rate() << "%)"
            << "\n  flagged-uncorrectable " << stats.flagged_uncorrectable
            << ", comparator mismatches " << stats.comparator_mismatches
            << ", silent corruptions " << stats.silent_corruptions << "\n";
}
}  // namespace

int main() {
  const std::size_t fast_sequences = bench::sequence_budget(200000);
  bool ok = true;
  bench::JsonReport json("validation");

  parallel::CampaignRunner runner;  // RETSCAN_THREADS / hardware_concurrency
  parallel::CampaignRunner serial(parallel::CampaignOptions{.threads = 1});
  const unsigned threads = runner.threads();

  bench::header("Section IV experiment 1 — single error per sequence (behavioral tier)");
  ValidationConfig single;
  single.fifo = FifoSpec{32, 32};
  single.chain_count = 80;
  single.mode = InjectionMode::SingleRandom;
  single.seed = 2024;
  {
    // The serial reference exists to prove determinism and measure scaling;
    // cap it so a paper-scale budget is not dominated by a 1-thread rerun.
    const std::size_t reference_sequences =
        std::min<std::size_t>(fast_sequences, 200000);
    bench::Stopwatch timer;
    const parallel::CampaignReport serial_run =
        serial.run_fast(single, reference_sequences);
    const double serial_seconds = timer.seconds();
    timer.restart();
    const parallel::CampaignReport reference_run =
        runner.run_fast(single, reference_sequences);
    const double parallel_seconds = timer.seconds();
    // Full-budget campaign on the pool (identical to reference_run when the
    // budget fits the cap, so skip the rerun then).
    timer.restart();
    const parallel::CampaignReport run = fast_sequences == reference_sequences
                                             ? reference_run
                                             : runner.run_fast(single, fast_sequences);
    const double full_seconds =
        fast_sequences == reference_sequences ? parallel_seconds : timer.seconds();

    const ValidationStats& stats = run.stats;
    const double rate = static_cast<double>(stats.sequences) / full_seconds;
    const double serial_rate =
        static_cast<double>(serial_run.stats.sequences) / serial_seconds;
    const double speedup = serial_seconds / parallel_seconds;
    const double efficiency = speedup / static_cast<double>(threads);
    report("exp1/fast", stats);
    std::cout << "  throughput " << rate << " sequences/sec on " << threads
              << " threads x " << run.shard_count << " shards (" << speedup
              << "x over 1 thread, efficiency " << 100.0 * efficiency << "%)\n";
    json.set("fast_sequences_per_sec", rate);
    json.set("serial_sequences_per_sec", serial_rate);
    json.set("fast_detection_rate", stats.detection_rate());
    json.set("fast_correction_rate", stats.correction_rate());
    json.set("threads", static_cast<double>(threads));
    json.set("shard_count", static_cast<double>(run.shard_count));
    json.set("reference_sequences", static_cast<double>(reference_sequences));
    json.set("parallel_speedup", speedup);
    json.set("scaling_efficiency", efficiency);

    // Thread scaling curve: the same campaign at 1/2/4/8 pool threads.
    // Statistics must be bit-identical to the serial reference at every
    // point (shard plan is thread-count independent); speedup is against
    // the 1-thread wall clock measured above.
    bench::header("Thread scaling curve (behavioral tier, fixed shard plan)");
    for (const unsigned n : {1u, 2u, 4u, 8u}) {
      parallel::CampaignRunner curve(parallel::CampaignOptions{.threads = n});
      timer.restart();
      const parallel::CampaignReport curve_run =
          curve.run_fast(single, reference_sequences);
      const double curve_seconds = timer.seconds();
      const double curve_speedup = serial_seconds / curve_seconds;
      const double curve_efficiency = curve_speedup / static_cast<double>(n);
      std::cout << "  " << n << " thread(s): " << curve_seconds << " s, speedup "
                << curve_speedup << "x, efficiency " << 100.0 * curve_efficiency
                << "%\n";
      const std::string suffix = "_t" + std::to_string(n);
      json.set("parallel_speedup" + suffix, curve_speedup);
      json.set("scaling_efficiency" + suffix, curve_efficiency);
      ok = ok && curve_run.stats == serial_run.stats;
    }
    ok = ok && stats.detection_rate() == 1.0 && stats.correction_rate() == 1.0 &&
         stats.silent_corruptions == 0;
    // Determinism across thread counts is part of the contract.
    ok = ok && serial_run.stats == reference_run.stats;
    // Parallel throughput gate: ≥3x on a non-trivial budget when the
    // hardware can actually deliver it — tiny CI smoke budgets are
    // dominated by shard setup; threads beyond hardware_concurrency
    // cannot scale at all; and hardware_concurrency counts logical CPUs,
    // so require ≥8 (≈4 physical cores with SMT) before demanding 3x.
    const unsigned cores = std::thread::hardware_concurrency();
    ok = ok && (threads < 4 || threads > cores || cores < 8 ||
                reference_sequences < 50000 || speedup >= 3.0);
  }

  bench::header("Behavioral kernel — syndrome evaluation vs the data-full oracle");
  {
    // behavioral_speedup is the perf-gated metric: FastTestbench::run (each
    // sequence evaluated from its error pattern) over run_reference (each
    // sequence's data drawn, encoded, decoded twice and compared), exp1
    // shape, one thread, same binary. Fixed counts keep it independent of
    // RETSCAN_SEQUENCES; the prefix check re-asserts that both paths give
    // bit-identical statistics.
    constexpr std::size_t kReferenceSequences = 2000;
    constexpr std::size_t kFastSequences = 1000000;
    FastTestbench reference(single);
    FastTestbench fast(single);
    bench::Stopwatch timer;
    const ValidationStats reference_stats = reference.run_reference(kReferenceSequences);
    const double reference_rate = kReferenceSequences / timer.seconds();
    const ValidationStats fast_prefix = fast.run(kReferenceSequences);
    timer.restart();
    const ValidationStats fast_stats = fast.run(kFastSequences);
    const double fast_rate = kFastSequences / timer.seconds();
    const double behavioral_speedup = fast_rate / reference_rate;
    std::cout << "behavioral: run " << fast_rate << " sequences/sec, run_reference "
              << reference_rate << " sequences/sec (" << behavioral_speedup
              << "x, 1 thread)\n";
    json.set("behavioral_sequences_per_sec", fast_rate);
    json.set("reference_behavioral_sequences_per_sec", reference_rate);
    json.set("behavioral_speedup", behavioral_speedup);
    ok = ok && fast_prefix == reference_stats && fast_stats.silent_corruptions == 0 &&
         fast_stats.correction_rate() == 1.0;
  }

  bench::header("Checkpoint journal overhead (serial, append per shard)");
  {
    // checkpoint_overhead is the durability-gated metric (≤ 1.05 in
    // ci/check_bench_json.py): wall clock of a checkpointed campaign over
    // the identical plain campaign, both serial (no pool scheduling noise).
    // Small shards on purpose — more appends per second of work than the
    // defaults, so the gate bounds the journal's worst side. The campaign
    // grows until one plain run lasts ≥ 150 ms, so every timed region stays
    // above 100 ms even when the host runs fast and the ratio measures the
    // appends rather than timer noise. Plain and journaled runs alternate
    // in pairs, each pair's ratio compares two runs adjacent in time, and
    // the median over the pairs discards the ones a host hiccup landed on.
    const std::size_t ck_shard = 512;
    const std::string path = "bench_checkpoint.journal";
    parallel::CampaignReport plain, durable;
    const auto run_plain = [&](std::size_t sequences) {
      bench::Stopwatch timer;
      plain = serial.run_fast(single, sequences, ck_shard);
      return timer.seconds();
    };
    const auto run_durable = [&](std::size_t sequences) {
      // Journal construction and every per-shard append are inside the
      // timed region — the full durability tax.
      std::remove(path.c_str());
      bench::Stopwatch timer;
      CampaignJournal journal(path, /*fingerprint=*/1, single.seed,
                              CampaignJournal::Mode::Truncate);
      parallel::RunControls controls;
      controls.journal = &journal;
      durable = serial.run_fast(single, sequences, ck_shard, controls);
      return timer.seconds();
    };
    std::size_t ck_sequences = 64 * ck_shard;
    while (run_plain(ck_sequences) < 0.15) {
      ck_sequences *= 2;
    }
    double plain_seconds = 0.0;
    double durable_seconds = 0.0;
    const std::vector<double> ratios = bench::paired_ratios(
        15,
        [&] {
          const double seconds = run_durable(ck_sequences);
          durable_seconds += seconds;
          return seconds;
        },
        [&] {
          const double seconds = run_plain(ck_sequences);
          plain_seconds += seconds;
          return seconds;
        });
    std::remove(path.c_str());
    const double overhead = ratios[ratios.size() / 2];
    std::cout << "checkpoint: " << ck_sequences << " sequences x "
              << durable.shard_count << " shards x " << ratios.size()
              << " pairs: plain " << plain_seconds << " s, journaled "
              << durable_seconds << " s (median pair overhead " << overhead
              << "x, quartiles " << ratios[ratios.size() / 4] << "-"
              << ratios[ratios.size() * 3 / 4] << ")\n";
    json.set("checkpoint_overhead", overhead);
    json.set("checkpoint_shards", static_cast<double>(durable.shard_count));
    // Journaling must not perturb the statistics, only persist them.
    ok = ok && durable.stats == plain.stats &&
         durable.status == CampaignStatus::Complete;
  }

  bench::header("Section IV experiment 2 — clustered multiple errors (behavioral tier)");
  ValidationConfig burst = single;
  burst.mode = InjectionMode::MultipleBurst;
  burst.burst_size = 4;
  burst.burst_spread = 1;
  {
    const ValidationStats stats = runner.run_fast(burst, fast_sequences / 4).stats;
    report("exp2/fast", stats);
    ok = ok && stats.detection_rate() == 1.0 && stats.silent_corruptions == 0;
    ok = ok && stats.correction_rate() < 0.5;  // bursts defeat SEC correction
  }

  bench::header("Gate-level confirmation (structural tier, 32-word FIFO slice)");
  ValidationConfig gate;
  gate.fifo = FifoSpec{32, 2};
  gate.chain_count = 8;
  gate.mode = InjectionMode::SingleRandom;
  gate.seed = 7;
  double scalar_gate_rate = 0.0;
  {
    StructuralTestbench tb(gate);
    bench::Stopwatch timer;
    const ValidationStats stats = tb.run(40);
    scalar_gate_rate = static_cast<double>(stats.sequences) / timer.seconds();
    report("exp1/gate", stats);
    std::cout << "  throughput " << scalar_gate_rate << " sequences/sec\n";
    ok = ok && stats.detection_rate() == 1.0 && stats.correction_rate() == 1.0 &&
         stats.comparator_mismatches == 0;
  }
  gate.mode = InjectionMode::MultipleBurst;
  gate.burst_size = 4;
  gate.burst_spread = 1;
  {
    StructuralTestbench tb(gate);
    const ValidationStats stats = tb.run(20);
    report("exp2/gate", stats);
    ok = ok && stats.detection_rate() == 1.0 && stats.silent_corruptions == 0;
  }

  bench::header("Gate-level packed campaign (64 trials/simulation x " +
                std::to_string(threads) + " threads)");
  gate.mode = InjectionMode::SingleRandom;
  {
    // gate_speedup is the perf-gated metric, so it must stay a pure
    // lane-parallelism ratio (packed vs scalar, both on one thread, one
    // shard — no per-shard testbench construction in the timed region) —
    // machine-independent. The pooled run is reported separately.
    bench::Stopwatch timer;
    const parallel::CampaignReport packed_serial =
        serial.run_structural_packed(gate, 640, 640);
    const double packed_serial_rate =
        static_cast<double>(packed_serial.stats.sequences) / timer.seconds();
    timer.restart();
    const parallel::CampaignReport run = runner.run_structural_packed(gate, 640, 64);
    const ValidationStats& stats = run.stats;
    const double packed_gate_rate = static_cast<double>(stats.sequences) / timer.seconds();
    const double gate_speedup = packed_serial_rate / scalar_gate_rate;
    report("exp1/gate-packed", stats);
    std::cout << "  throughput " << packed_gate_rate << " sequences/sec pooled, "
              << packed_serial_rate << " on 1 thread (" << gate_speedup
              << "x over the scalar structural tier, " << run.shard_count
              << " shards)\n";
    json.set("scalar_gate_sequences_per_sec", scalar_gate_rate);
    json.set("packed_gate_sequences_per_sec", packed_serial_rate);
    json.set("pooled_gate_sequences_per_sec", packed_gate_rate);
    json.set("gate_speedup", gate_speedup);
    json.set("packed_detection_rate", stats.detection_rate());
    json.set("packed_correction_rate", stats.correction_rate());
    // Note: the two packed runs use different shard plans (1 x 640 vs
    // 10 x 64), so their stats differ by design; thread-count invariance
    // under a FIXED shard plan is asserted in exp1 and tests/test_parallel.
    ok = ok && stats.detection_rate() == 1.0 && stats.correction_rate() == 1.0 &&
         stats.silent_corruptions == 0 && gate_speedup >= 10.0;
    ok = ok && packed_serial.stats.detection_rate() == 1.0 &&
         packed_serial.stats.correction_rate() == 1.0 &&
         packed_serial.stats.silent_corruptions == 0;
  }

  bench::header("Event-driven scheduling — low-activity retention workload");
  {
    // A power-gated design spends most of its life idle: a burst of traffic,
    // a long quiet stretch, a retention sleep/wake, repeat. The dirty-net
    // worklist (sim/schedule.hpp) should make the quiet stretches nearly
    // free; the full sweep pays the whole netlist every settle regardless.
    // event_speedup is the perf-gated metric: same PackedSim workload, same
    // stimulus stream, Sweep wall clock over Event wall clock — a pure
    // scheduling ratio, machine-independent like gate_speedup above.
    ProtectionConfig protection;
    protection.kind = CodeKind::HammingPlusCrc;
    protection.chain_count = 8;
    protection.test_width = 4;
    const ProtectedDesign design(make_fifo(FifoSpec{32, 2}), protection);
    const Netlist& nl = design.netlist();

    constexpr int kEpisodes = 12;
    constexpr int kActiveCycles = 4;
    constexpr std::size_t kIdleCycles = 256;
    auto run_workload = [&](PackedSim& sim) {
      std::uint64_t digest = 0;
      sim.reset();
      for (const char* name : {"se", "retain", "mon_en", "mon_decode",
                               "mon_clear", "sig_capture", "sig_compare",
                               "test_mode", "rd_en"}) {
        sim.set_input_all(name, false);
      }
      Rng stim(77);  // reseeded per run: both schedules see identical lanes
      for (int episode = 0; episode < kEpisodes; ++episode) {
        for (int active = 0; active < kActiveCycles; ++active) {
          sim.set_input("wr_en", stim.next_u64());
          sim.set_input("din0", stim.next_u64());
          sim.set_input("din1", stim.next_u64());
          sim.step();
        }
        sim.set_input_all("wr_en", false);
        sim.step_n(kIdleCycles);
        sim.set_input_all("retain", true);
        sim.step();
        sim.power_off(1);
        sim.power_on(1);
        sim.set_input_all("retain", false);
        sim.step();
        for (const NetId out : nl.outputs()) {
          digest = digest * 1099511628211ull ^ sim.net_lanes(out);
        }
      }
      return digest;
    };

    PackedSim sweep_sim(nl);
    sweep_sim.set_schedule(Schedule::Sweep);
    PackedSim event_sim(nl);
    event_sim.set_schedule(Schedule::Event);

    // Sweep and event runs alternate in pairs (each run lasts about 10 ms),
    // and the gate reads the median pair ratio. Every run replays the same
    // episodes from reset, so every run of a side leaves the same digest.
    struct Side {
      PackedSim* sim;
      std::vector<double> seconds;
      std::vector<std::uint64_t> digests;
      ScheduleTelemetry activity;  ///< of the side's last run
    };
    Side sweep{&sweep_sim, {}, {}, {}};
    Side event{&event_sim, {}, {}, {}};
    const auto timed_run = [&](Side& side) {
      bench::Stopwatch timer;
      side.digests.push_back(run_workload(*side.sim));
      side.seconds.push_back(timer.seconds());
      side.activity = side.sim->take_schedule_telemetry();
      return side.seconds.back();
    };
    const std::vector<double> ratios = bench::paired_ratios(
        15, [&] { return timed_run(sweep); }, [&] { return timed_run(event); });
    const double event_speedup = ratios[ratios.size() / 2];
    const auto median_seconds = [](std::vector<double> seconds) {
      std::sort(seconds.begin(), seconds.end());
      return seconds[seconds.size() / 2];
    };
    const double sweep_seconds = median_seconds(sweep.seconds);
    const double event_seconds = median_seconds(event.seconds);
    const std::uint64_t event_digest = event.digests.front();
    const auto all_equal = [&](const std::vector<std::uint64_t>& digests) {
      return std::all_of(digests.begin(), digests.end(),
                         [&](std::uint64_t d) { return d == event_digest; });
    };
    const bool digests_match = all_equal(sweep.digests) && all_equal(event.digests);
    const ScheduleTelemetry& activity = event.activity;
    const double cycles =
        static_cast<double>(kEpisodes) * (kActiveCycles + kIdleCycles + 2);
    std::cout << "event-sched: " << cycles << " cycles x " << PackedSim::lane_count()
              << " lanes, median sweep " << sweep_seconds << " s, event " << event_seconds
              << " s; " << ratios.size() << " pairs, median " << event_speedup
              << "x (min " << ratios.front() << ", max " << ratios.back()
              << ")\n  event settles "
              << activity.event_sweeps << ", full sweeps " << activity.full_sweeps
              << " (" << activity.full_sweep_fallbacks
              << " fallbacks), avg dirty fraction " << activity.avg_dirty_fraction()
              << "\n  digest " << (digests_match ? "match" : "MISMATCH")
              << " (0x" << std::hex << event_digest << std::dec << ")\n";
    json.set("event_speedup", event_speedup);
    json.set("event_sweeps", static_cast<double>(activity.event_sweeps));
    json.set("event_full_sweep_fallbacks",
             static_cast<double>(activity.full_sweep_fallbacks));
    json.set("avg_dirty_fraction", activity.avg_dirty_fraction());
    json.set("sweep_cycles_per_sec", cycles / sweep_seconds);
    json.set("event_cycles_per_sec", cycles / event_seconds);
    // Bit-identical values are the contract; the >= 2.0 speedup floor is
    // enforced by ci/check_bench_json.py against this report.
    ok = ok && digests_match && activity.event_sweeps > 0 &&
         activity.avg_dirty_fraction() < 1.0;
    ok = ok && sweep.activity.event_sweeps == 0 && sweep.activity.full_sweeps > 0;
  }

  bench::header("Campaign service — warm-start speedup (session cache)");
  {
    // artifact_warm_speedup (its name predates 10.0) is the serve-daemon
    // warm-start metric, gated >= 1.2 in ci/check_bench_json.py: job setup
    // wall clock — spec parse, protected synthesis, netlist compile,
    // workspace warm-up — for a cold submission over the identical
    // resubmission that the daemon's JobManager serves from its in-memory
    // session cache, as `retscan submit` does twice in the serve CI job. Same
    // binary, same host: a pure ratio. The checks below also re-assert the
    // contract that makes warm starts admissible at all — cold, warm and
    // restarted-daemon runs digest identically.
    const std::string spec_path = "bench_serve.spec";
    {
      std::ofstream spec(spec_path);
      spec << "fifo.depth = 32\nfifo.width = 2\n"
              "protection.kind = hamming+crc\nprotection.hamming_r = 3\n"
              "protection.chain_count = 8\nprotection.test_width = 4\n"
              "campaign.kind = validation\ncampaign.tier = structural\n"
              "campaign.seed = 7\ncampaign.sequences = 40\n"
              "campaign.mode = single-random\n";
    }

    serve::ServeOptions options;
    options.threads = 1;
    options.max_active = 1;
    serve::JobManager manager(options);
    const serve::JobRecord cold =
        *manager.wait(manager.submit(spec_path, {}));
    const serve::JobRecord warm =
        *manager.wait(manager.submit(spec_path, {}));
    ok = ok && cold.state == serve::JobState::Done &&
         warm.state == serve::JobState::Done && warm.session_reused &&
         serve::summary_digest(*cold.summary) ==
             serve::summary_digest(*warm.summary);

    // Daemon restart: a fresh JobManager starts with an empty session cache
    // and compiles again.
    serve::JobManager restarted(options);
    const serve::JobRecord relaunch =
        *restarted.wait(restarted.submit(spec_path, {}));
    ok = ok && relaunch.state == serve::JobState::Done &&
         !relaunch.session_reused &&
         serve::summary_digest(*cold.summary) ==
             serve::summary_digest(*relaunch.summary);

    const double artifact_warm_speedup =
        cold.setup_seconds / std::max(warm.setup_seconds, 1e-9);
    std::cout << "serve: cold setup " << cold.setup_seconds << " s, warm setup "
              << warm.setup_seconds << " s (" << artifact_warm_speedup
              << "x), restart setup " << relaunch.setup_seconds
              << " s\n  cold/warm/restart digests "
              << (serve::summary_digest(*cold.summary) ==
                          serve::summary_digest(*relaunch.summary)
                      ? "match"
                      : "MISMATCH")
              << "\n";
    json.set("artifact_warm_speedup", artifact_warm_speedup);
    json.set("artifact_cold_setup_sec", cold.setup_seconds);
    json.set("artifact_warm_setup_sec", warm.setup_seconds);
    json.set("artifact_restart_setup_sec", relaunch.setup_seconds);
    std::remove(spec_path.c_str());
  }

  std::cout << "\npaper: 100M sequences; 100%% single-error correction, 100%% multi-"
               "error detection, 0 escapes.\n";
  json.set("pass", ok ? 1.0 : 0.0);
  json.write();
  std::cout << (ok ? "\n[validation] PASS\n" : "\n[validation] FAIL\n");
  return ok ? 0 : 1;
}
