// The paper's case study end to end on the v1 API: a 32x32-bit FIFO
// protected with Hamming(7,4) + CRC-16 over 80 scan chains of 13 flops,
// validated with the Fig. 8 testbench at both tiers — behavioral
// (paper-scale, declarative CampaignSpec) and gate-level (structural tier).
//
//   ./build/example_fifo_protection

#include <iostream>

#include "retscan/retscan.hpp"

using namespace retscan;

namespace {
void report(const ValidationStats& stats) {
  std::cout << stats.sequences << " sequences: detection "
            << 100.0 * stats.detection_rate() << "%, correction "
            << 100.0 * stats.correction_rate() << "%, escapes "
            << stats.silent_corruptions << "\n";
}
}  // namespace

int main() {
  // Paper-scale behavioral campaigns (Section IV geometry). The Session is
  // cheap here: behavioral validation never synthesizes the gate level.
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.chain_count = 80;
  Session session(FifoSpec{32, 32}, protection);

  std::cout << "=== experiment 1: one random retention upset per sequence ===\n";
  CampaignSpec exp1;
  exp1.kind = CampaignKind::Validation;
  exp1.mode = InjectionMode::SingleRandom;
  exp1.seed = 42;
  exp1.sequences = 50000;
  report(session.run(exp1).validation);

  std::cout << "\n=== experiment 2: clustered burst per sequence ===\n";
  CampaignSpec exp2 = exp1;
  exp2.mode = InjectionMode::MultipleBurst;
  exp2.burst_size = 4;
  exp2.burst_spread = 1;
  exp2.sequences = 10000;
  std::cout << "(bursts defeat SEC: all detected, flagged instead of corrected)\n";
  report(session.run(exp2).validation);

  std::cout << "\n=== gate-level confirmation on a FIFO slice ===\n";
  ProtectionConfig slice_protection;
  slice_protection.kind = CodeKind::HammingPlusCrc;
  slice_protection.chain_count = 8;
  Session slice(FifoSpec{32, 2}, slice_protection);
  CampaignSpec gate;
  gate.kind = CampaignKind::Validation;
  gate.tier = ValidationTier::Structural;
  gate.seed = 7;
  gate.sequences = 64;  // one 64-lane batch of the packed gate-level testbench
  const CampaignResult confirmation = slice.run(gate);
  report(confirmation.validation);
  std::cout << "comparator mismatches: "
            << confirmation.validation.comparator_mismatches << "\n";

  const TechLibrary tech = TechLibrary::st120();
  const AreaReport base = slice.design().base_area(tech);
  const AreaReport monitor = slice.design().monitor_area(tech);
  std::cout << "\nprotected slice area: base " << base.total_um2 << " um^2 + monitor "
            << monitor.total_um2 << " um^2 ("
            << slice.design().overhead_percent(tech) << "% overhead)\n";
  return confirmation.passed() ? 0 : 1;
}
