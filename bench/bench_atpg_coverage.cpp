// Section III evidence: manufacturing test is unaffected by the monitoring
// architecture. Runs ATPG on the protected FIFO's combinational frame and
// applies the pattern set through the Fig. 5(b) test-mode concatenation on
// the live gate-level design; every pattern must pass, at full random+PODEM
// coverage of testable faults.
//
// Also the fault-sim/delivery throughput bench: the 64-way bit-parallel
// paths are timed against scalar baselines (one pattern per pass / one
// pattern per scan load) and both throughputs land in BENCH_atpg.json,
// plus the multi-threaded variants (fault list / pattern batches sharded
// over the thread pool) which must reproduce the serial results
// bit-for-bit.

#include <algorithm>
#include <iostream>
#include <string>

#include "retscan/test.hpp"
#include "bench_util.hpp"
#include "retscan/netlist.hpp"
#include "retscan/parallel.hpp"

using namespace retscan;

namespace {

/// Full fault-dictionary workload (no fault dropping): every fault is
/// simulated against every pattern, so the measured cost is pure
/// pattern-evaluation throughput. `batch_size` kLaneBlockBits is the
/// block-parallel compiled cone path (256 patterns per pass at the default
/// lane width); with `reference` set, each fault instead pays a full
/// interpreted circuit evaluation per pattern pass (the seed's
/// one-fault-at-a-time flow), which is the scalar baseline.
std::size_t fault_dictionary_detects(const CombinationalFrame& frame,
                                     const std::vector<Fault>& faults,
                                     const std::vector<BitVec>& patterns,
                                     std::size_t batch_size, bool reference = false) {
  std::size_t detected = 0;
  std::vector<char> hit(faults.size(), 0);
  CombinationalFrame::Workspace workspace;
  for (std::size_t base = 0; base < patterns.size(); base += batch_size) {
    const std::size_t count = std::min(batch_size, patterns.size() - base);
    const std::vector<BitVec> batch(patterns.begin() + base,
                                    patterns.begin() + base + count);
    if (reference) {
      const auto good_words = frame.good_response_words(batch);
      for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        if (frame.detect_mask_full(faults[fi], batch, good_words) != 0) {
          hit[fi] = 1;
        }
      }
      continue;
    }
    const CombinationalFrame::LoadedPatternBatch loaded = frame.load_batch(batch);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (block_any(frame.detect_block(faults[fi], loaded, loaded.good, workspace))) {
        hit[fi] = 1;
      }
    }
  }
  for (const char h : hit) {
    detected += h != 0 ? 1 : 0;
  }
  return detected;
}

}  // namespace

int main() {
  bench::header("ATPG + test-mode delivery on the protected FIFO");
  bench::JsonReport json("atpg");

  ProtectionConfig config;
  config.kind = CodeKind::HammingPlusCrc;
  config.chain_count = 8;
  config.test_width = 4;
  const ProtectedDesign design(make_fifo(FifoSpec{32, 2}), config);

  CombinationalFrame frame(design.netlist());
  for (const char* name : {"se", "retain", "mon_en", "mon_decode", "mon_clear",
                           "sig_capture", "sig_compare", "test_mode"}) {
    frame.constrain(name, false);
  }
  const auto all = enumerate_faults(design.netlist());
  const auto faults = collapse_faults(design.netlist(), all);
  std::cout << "fault universe: " << all.size() << " stem faults, " << faults.size()
            << " after collapsing\n";

  AtpgOptions options;
  options.random_patterns = 512;
  options.max_backtracks = 300;
  const AtpgResult atpg = run_atpg(frame, faults, options);
  std::cout << "ATPG: " << atpg.detected_random << " random + " << atpg.detected_podem
            << " podem detected, " << atpg.untestable << " untestable, "
            << atpg.aborted << " aborted\n"
            << "coverage " << 100.0 * atpg.coverage() << "% with "
            << atpg.patterns.size() << " patterns\n";
  json.set("coverage", atpg.coverage());
  json.set("patterns", static_cast<double>(atpg.patterns.size()));
  json.set("collapsed_faults", static_cast<double>(faults.size()));

  // --- fault-simulation throughput: packed (64 patterns/pass) vs scalar ---
  // Timed on the full fault-dictionary workload (no dropping) so both sides
  // evaluate every fault against every pattern.
  bench::header("Fault-simulation throughput (block-parallel vs scalar baseline)");
  const double nominal_evals =
      static_cast<double>(faults.size()) * static_cast<double>(atpg.patterns.size());
  bench::Stopwatch timer;
  constexpr int kPackedRepeats = 5;
  std::size_t packed_detects = 0;
  for (int r = 0; r < kPackedRepeats; ++r) {
    packed_detects =
        fault_dictionary_detects(frame, faults, atpg.patterns, kLaneBlockBits);
  }
  const double packed_fs_time = timer.seconds() / kPackedRepeats;
  timer.restart();
  const std::size_t scalar_detects =
      fault_dictionary_detects(frame, faults, atpg.patterns, 1, /*reference=*/true);
  const double scalar_fs_time = timer.seconds();
  const double packed_fs_rate = nominal_evals / packed_fs_time;
  const double scalar_fs_rate = nominal_evals / scalar_fs_time;
  const double faultsim_speedup = packed_fs_rate / scalar_fs_rate;
  std::cout << "packed:  " << packed_fs_rate << " fault-evals/sec\n"
            << "scalar:  " << scalar_fs_rate << " fault-evals/sec\n"
            << "speedup: " << faultsim_speedup << "x\n";
  json.set("packed_fault_evals_per_sec", packed_fs_rate);
  json.set("scalar_fault_evals_per_sec", scalar_fs_rate);
  json.set("faultsim_speedup", faultsim_speedup);

  // --- multi-threaded fault simulation (with fault dropping) --------------
  bench::header("Multi-threaded fault simulation (N cores x 64 lanes)");
  ThreadPool pool;  // RETSCAN_THREADS / hardware_concurrency
  timer.restart();
  const FaultSimResult serial_sim = fault_simulate(frame, faults, atpg.patterns);
  const double serial_sim_time = timer.seconds();
  timer.restart();
  const FaultSimResult pooled_sim = fault_simulate(frame, faults, atpg.patterns, pool);
  const double pooled_sim_time = timer.seconds();
  const double threaded_speedup = serial_sim_time / pooled_sim_time;
  const bool pooled_matches = pooled_sim.detected_by == serial_sim.detected_by &&
                              pooled_sim.detected == serial_sim.detected;
  std::cout << "serial:  " << serial_sim.detected << "/" << serial_sim.total_faults
            << " detected in " << serial_sim_time << " s\n"
            << "pooled:  " << pooled_sim.detected << "/" << pooled_sim.total_faults
            << " detected in " << pooled_sim_time << " s on " << pool.size()
            << " threads (" << threaded_speedup << "x, results "
            << (pooled_matches ? "identical" : "DIVERGED") << ")\n";
  json.set("threads", static_cast<double>(pool.size()));
  json.set("faultsim_threaded_speedup", threaded_speedup);

  // --- thread scaling curve (1/2/4/8) -------------------------------------
  // Same workload per point; speedup is against the serial run above, and
  // efficiency = speedup / threads. Results must stay identical per point.
  bench::header("Fault-simulation thread scaling curve");
  bool scaling_matches = true;
  for (const unsigned n : {1u, 2u, 4u, 8u}) {
    ThreadPool curve_pool(n);
    timer.restart();
    const FaultSimResult curve_sim =
        fault_simulate(frame, faults, atpg.patterns, curve_pool);
    const double curve_time = timer.seconds();
    scaling_matches = scaling_matches && curve_sim.detected_by == serial_sim.detected_by;
    const double speedup = serial_sim_time / curve_time;
    const double efficiency = speedup / static_cast<double>(n);
    std::cout << n << " thread(s): " << curve_time << " s, speedup " << speedup
              << "x, efficiency " << efficiency << "\n";
    const std::string suffix = "_t" + std::to_string(n);
    json.set("faultsim_speedup" + suffix, speedup);
    json.set("scaling_efficiency" + suffix, efficiency);
  }

  // --- test-mode delivery throughput: one lane per pattern vs one load ----
  bench::header("Test-mode delivery throughput (64-lane vs scalar tester)");
  const ScanPorts ports = ScanPorts::test_mode_of(design);
  timer.restart();
  const ScanTestResult packed_applied =
      deliver_scan_test_packed(ports, frame, atpg.patterns, nullptr);
  const double packed_apply_time = timer.seconds();
  timer.restart();
  const ScanTestResult pooled_applied =
      deliver_scan_test_packed(ports, frame, atpg.patterns, &pool, 128);
  const double pooled_apply_time = timer.seconds();
  RetentionSession session(design);
  timer.restart();
  const ScanTestResult scalar_applied =
      deliver_scan_test(session.sim(), ports, frame, atpg.patterns);
  const double scalar_apply_time = timer.seconds();
  const double packed_rate = packed_applied.patterns_applied / packed_apply_time;
  const double pooled_rate = pooled_applied.patterns_applied / pooled_apply_time;
  const double scalar_rate = scalar_applied.patterns_applied / scalar_apply_time;
  const double delivery_speedup = packed_rate / scalar_rate;
  std::cout << "test-mode delivery: " << scalar_applied.patterns_applied
            << " patterns, " << scalar_applied.mismatches << " mismatches (scalar), "
            << packed_applied.mismatches << " (packed), " << pooled_applied.mismatches
            << " (pooled)\n"
            << "packed:  " << packed_rate << " patterns/sec\n"
            << "pooled:  " << pooled_rate << " patterns/sec (" << pool.size()
            << " threads)\n"
            << "scalar:  " << scalar_rate << " patterns/sec\n"
            << "speedup: " << delivery_speedup << "x (single-thread packed)\n";
  json.set("packed_patterns_per_sec", packed_rate);
  json.set("pooled_patterns_per_sec", pooled_rate);
  json.set("scalar_patterns_per_sec", scalar_rate);
  json.set("delivery_speedup", delivery_speedup);

  const bool ok = atpg.coverage() > 0.90 && scalar_applied.all_passed() &&
                  packed_applied.all_passed() && pooled_applied.all_passed() &&
                  pooled_applied.patterns_applied == packed_applied.patterns_applied &&
                  pooled_matches && scaling_matches &&
                  packed_detects == scalar_detects &&
                  faultsim_speedup >= 10.0 && delivery_speedup >= 10.0;
  json.set("pass", ok ? 1.0 : 0.0);
  json.write();
  std::cout << (ok ? "\n[atpg] PASS\n" : "\n[atpg] FAIL\n");
  return ok ? 0 : 1;
}
