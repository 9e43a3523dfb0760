// Imported-workload bench: the externally-authored circuits retscan runs.
// Every vendored circuit under bench/circuits/ — the ISCAS'85-class
// combinational set (gate-instance and bus+assign styles), the ISCAS'89-class
// sequential set and the EPFL-class arithmetic set — is parsed by the
// structural-Verilog frontend, lint-checked, and driven through packed
// stuck-at AND transition-delay campaigns via the same Session/CampaignSpec
// pipeline the CLI uses. Every stuck-at campaign runs the full two-phase
// ATPG (random patterns, then PODEM at 300 backtracks on what they leave),
// so the coverage table is the one a test engineer would sign off on. The
// sequential benches additionally run the scan-free sequential-coverage
// model, and the largest import feeds the compiled-core full-sweep and cone
// fault-evaluation throughput loops.
//
// BENCH_external.json records per-circuit coverage (with the untestable and
// aborted fault counts behind it), per-suite coverage and the aggregate
// metrics; ci/check_bench_json.py gates the coverage floors
// (deterministic for a fixed seed) against bench/baselines/BENCH_external.json.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "retscan/netlist.hpp"
#include "retscan/session.hpp"
#include "retscan/sim.hpp"
#include "retscan/test.hpp"

#ifndef RETSCAN_CIRCUITS_DIR
#define RETSCAN_CIRCUITS_DIR "bench/circuits"
#endif

using namespace retscan;

namespace {

struct Workload {
  const char* file;
  const char* suite;  ///< "iscas85" / "iscas89" / "epfl" class
  std::size_t random_patterns;
  /// 0 = bare import; otherwise the circuit is wrapped in the protection
  /// architecture with this many retention scan chains.
  std::size_t chains;
  CodeKind kind;
  std::size_t test_width;
  /// '89-class circuits additionally run the scan-free sequential model.
  bool sequential;
};

constexpr Workload kWorkloads[] = {
    // ISCAS'85-class combinational: gate-instance style...
    {"c17.v", "iscas85", 64, 0, CodeKind::CrcDetect, 0, false},
    {"add432.v", "iscas85", 256, 0, CodeKind::CrcDetect, 0, false},
    {"mul880.v", "iscas85", 256, 0, CodeKind::CrcDetect, 0, false},
    // ...and bus + assign expression style (the expression-synthesis path).
    {"ecc499.v", "iscas85", 256, 0, CodeKind::CrcDetect, 0, false},
    {"par1355.v", "iscas85", 256, 0, CodeKind::CrcDetect, 0, false},
    {"cmp1908.v", "iscas85", 256, 0, CodeKind::CrcDetect, 0, false},
    {"ctl2670.v", "iscas85", 256, 0, CodeKind::CrcDetect, 0, false},
    {"alu3540.v", "iscas85", 128, 0, CodeKind::CrcDetect, 0, false},
    {"bar5315.v", "iscas85", 128, 0, CodeKind::CrcDetect, 0, false},
    {"mul6288.v", "iscas85", 128, 0, CodeKind::CrcDetect, 0, false},
    {"vot7552.v", "iscas85", 128, 0, CodeKind::CrcDetect, 0, false},
    // ISCAS'89-class sequential (protected wrap + sequential model).
    {"s27.v", "iscas89", 64, 3, CodeKind::CrcDetect, 3, true},
    {"ctrl344.v", "iscas89", 256, 4, CodeKind::HammingPlusCrc, 4, true},
    {"pipe1196.v", "iscas89", 128, 4, CodeKind::CrcDetect, 4, true},
    {"ctrl5378.v", "iscas89", 128, 4, CodeKind::CrcDetect, 4, true},
    // EPFL-class arithmetic.
    {"epfl_adder.v", "epfl", 128, 0, CodeKind::CrcDetect, 0, false},
    {"epfl_bar.v", "epfl", 128, 0, CodeKind::CrcDetect, 0, false},
    {"epfl_max.v", "epfl", 128, 0, CodeKind::CrcDetect, 0, false},
};

std::string circuit_name(const std::string& file) {
  return file.substr(0, file.find('.'));
}

/// Lint acceptance for an import: nothing structurally broken. Floating
/// inputs are tolerated — the clock ports of the sequential benches are
/// intentionally unread (retscan flops clock implicitly).
bool lint_clean(const Netlist& netlist) {
  const std::vector<LintIssue> issues = lint_netlist(netlist);
  bool clean = true;
  for (const LintIssue& issue : issues) {
    if (issue.kind == LintKind::FloatingInput) {
      continue;
    }
    std::cout << "  LINT: " << issue.message << "\n";
    clean = false;
  }
  return clean;
}

}  // namespace

int main() {
  bench::header("Imported ISCAS-style workloads (structural-Verilog frontend)");
  bench::JsonReport json("external");
  bool ok = true;

  const std::string dir = std::string(RETSCAN_CIRCUITS_DIR) + "/";
  double min_coverage = 1.0;
  double min_coverage_td = 1.0;
  double min_coverage_seq = 1.0;
  double suite_min[3] = {1.0, 1.0, 1.0};
  const char* suite_names[3] = {"iscas85", "iscas89", "epfl"};
  double total_cells = 0.0;
  unsigned threads = 1;

  for (const Workload& work : kWorkloads) {
    const std::string path = dir + work.file;
    Netlist imported = Netlist::from_verilog(path);
    const std::string name = circuit_name(work.file);
    const std::size_t ports = imported.inputs().size() + imported.outputs().size();
    const std::size_t cells = imported.cell_count() - ports;
    const std::size_t flops = imported.flops().size();
    total_cells += static_cast<double>(cells);
    const bool clean = lint_clean(imported);
    ok = ok && clean;

    ProtectionConfig protection;
    protection.kind = work.kind;
    protection.chain_count = work.chains;
    protection.test_width = work.test_width;
    Session session = work.chains == 0
                          ? Session::unprotected(std::move(imported))
                          : Session(std::move(imported), protection);

    CampaignSpec spec;
    spec.kind = CampaignKind::FaultCoverage;
    spec.seed = 7;
    spec.atpg.random_patterns = work.random_patterns;
    spec.atpg.max_backtracks = 300;
    const CampaignResult stuck = session.run(spec);
    const double coverage = stuck.atpg.coverage();
    min_coverage = std::min(min_coverage, coverage);
    threads = stuck.threads;

    // Same pattern set, transition-delay model: launch/capture pairs over
    // the uncollapsed stem universe.
    spec.kind = CampaignKind::TransitionDelay;
    const CampaignResult transition = session.run(spec);
    const double td_coverage = transition.faults.coverage();
    min_coverage_td = std::min(min_coverage_td, td_coverage);

    std::cout << name << ": " << cells << " cells, " << flops << " flops"
              << (work.chains == 0 ? " (bare)" : " (protected)") << " — "
              << stuck.atpg.patterns.size() << " patterns, stuck-at "
              << 100.0 * coverage << "% (" << stuck.faults.detected << "/"
              << stuck.faults.total_faults << ", " << stuck.atpg.untestable
              << " untestable, " << stuck.atpg.aborted << " aborted) in " << stuck.seconds
              << " s, transition " << 100.0 * td_coverage << "% ("
              << transition.faults.detected << "/"
              << transition.faults.total_faults << ") in "
              << transition.seconds << " s\n";
    json.set("coverage_" + name, coverage);
    json.set("untestable_" + name, static_cast<double>(stuck.atpg.untestable));
    json.set("aborted_" + name, static_cast<double>(stuck.atpg.aborted));
    json.set("coverage_td_" + name, td_coverage);
    json.set("cells_" + name, static_cast<double>(cells));
    ok = ok && stuck.passed() && transition.passed();

    // '89-class circuits: the scan-free multi-cycle model on the raw import
    // (a fresh bare session — no scan fabric, no capture constraints).
    if (work.sequential) {
      Session bare = Session::unprotected(Netlist::from_verilog(path));
      CampaignSpec seq;
      seq.kind = CampaignKind::SequentialCoverage;
      seq.seed = 7;
      seq.sequences = 64;
      seq.cycles = 32;
      const CampaignResult sequential = bare.run(seq);
      const double seq_coverage = sequential.faults.coverage();
      min_coverage_seq = std::min(min_coverage_seq, seq_coverage);
      std::cout << "  sequential (" << seq.sequences << " seq x " << seq.cycles
                << " cycles): " << 100.0 * seq_coverage << "% ("
                << sequential.faults.detected << "/"
                << sequential.faults.total_faults << ") in "
                << sequential.seconds << " s\n";
      json.set("coverage_seq_" + name, seq_coverage);
      ok = ok && sequential.passed();
    }

    for (int s = 0; s < 3; ++s) {
      if (work.suite == std::string(suite_names[s])) {
        suite_min[s] = std::min(suite_min[s], coverage);
      }
    }
  }

  // --- compiled-core throughput on the largest import ----------------------
  bench::header("Compiled-core throughput on mul880 (imported)");
  const Netlist mul = Netlist::from_verilog(dir + "mul880.v");
  const std::shared_ptr<const CompiledNetlist> compiled = mul.compiled();
  const std::size_t gates = compiled->instrs().size();
  const std::size_t source_count = compiled->slot_count() - gates;

  // Lane-block full sweep: every word of every source block gets independent
  // stimulus, so each pass is gates x kLaneBlockBits lane evaluations.
  constexpr int kSweeps = 2000;
  std::vector<LaneBlock> slots(compiled->slot_count(), LaneBlock{});
  Rng stim_rng(1);
  bench::Stopwatch timer;
  LaneWord checksum = 0;
  for (int s = 0; s < kSweeps; ++s) {
    for (std::size_t i = 0; i < source_count; ++i) {
      for (std::size_t w = 0; w < kLaneWords; ++w) {
        slots[i].w[w] = stim_rng.next_u64();
      }
    }
    compiled->eval_full(slots.data());
    checksum ^= slots[compiled->slot_count() - 1].w[0];
  }
  const double sweep_time = timer.seconds();
  const double compiled_meps = static_cast<double>(gates) * kSweeps *
                               static_cast<double>(kLaneBlockBits) / sweep_time / 1e6;
  ok = ok && checksum != 0;  // keeps the loop observable

  // --- cone fault-evaluation throughput on the same import -----------------
  CombinationalFrame frame(mul);
  const auto faults = collapse_faults(mul, enumerate_faults(mul));
  Rng pattern_rng(7);
  std::vector<BitVec> patterns;
  for (int i = 0; i < 256; ++i) {
    patterns.push_back(frame.random_pattern(pattern_rng));
  }
  frame.warm_cones(faults);
  // Each loaded block carries kLaneBlockBits patterns; the throughput unit
  // stays faults x (patterns/64) per second so the metric is comparable
  // across lane widths and PRs.
  std::vector<CombinationalFrame::LoadedPatternBatch> loaded;
  for (std::size_t base = 0; base < patterns.size(); base += kLaneBlockBits) {
    const std::size_t count =
        std::min<std::size_t>(kLaneBlockBits, patterns.size() - base);
    loaded.push_back(frame.load_batch(
        std::vector<BitVec>(patterns.begin() + base, patterns.begin() + base + count)));
  }
  CombinationalFrame::Workspace workspace;
  constexpr int kRepeats = 20;
  std::uint64_t mask_checksum = 0;
  timer.restart();
  for (int r = 0; r < kRepeats; ++r) {
    for (const auto& batch : loaded) {
      for (const Fault& fault : faults) {
        const LaneBlock mask = frame.detect_block(fault, batch, workspace);
        for (std::size_t w = 0; w < kLaneWords; ++w) {
          mask_checksum ^= mask.w[w];
        }
      }
    }
  }
  const double cone_time = timer.seconds() / kRepeats;
  const double word_batches =
      static_cast<double>((patterns.size() + kLaneCount - 1) / kLaneCount);
  const double evals_per_sec =
      static_cast<double>(faults.size()) * word_batches / cone_time;
  (void)mask_checksum;

  std::cout << "full sweep: " << compiled_meps << " M lane-gate-evals/sec over "
            << gates << " compiled gates\n"
            << "cone path:  " << evals_per_sec << " fault-evals/sec over "
            << faults.size() << " faults x " << loaded.size() << " lane blocks\n"
            << "min stuck-at coverage across imports: " << 100.0 * min_coverage
            << "%\nmin transition coverage across imports: "
            << 100.0 * min_coverage_td
            << "%\nmin sequential coverage across '89-class imports: "
            << 100.0 * min_coverage_seq << "%\n";

  json.set("circuits", static_cast<double>(std::size(kWorkloads)));
  json.set("total_cells", total_cells);
  json.set("min_coverage", min_coverage);
  json.set("min_coverage_td", min_coverage_td);
  json.set("min_coverage_seq", min_coverage_seq);
  for (int s = 0; s < 3; ++s) {
    json.set(std::string("min_coverage_") + suite_names[s], suite_min[s]);
  }
  json.set("compiled_meps", compiled_meps);
  json.set("faultsim_evals_per_sec", evals_per_sec);
  json.set("threads", static_cast<double>(threads));
  json.set("pass", ok ? 1.0 : 0.0);
  json.write();
  std::cout << (ok ? "\n[external] PASS\n" : "\n[external] FAIL\n");
  return ok ? 0 : 1;
}
