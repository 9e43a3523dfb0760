// Installed-package consumer: exercises the v1 surface exactly as an
// external project would — find_package(retscan), link retscan::retscan,
// include only retscan/ headers, run one declarative campaign.

#include <iostream>

#include "retscan/retscan.hpp"

int main() {
  using namespace retscan;
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.chain_count = 8;
  protection.test_width = 4;
  Session session(FifoSpec{32, 2}, protection);

  CampaignSpec spec;
  spec.kind = CampaignKind::ScanTest;
  spec.seed = 1;
  spec.atpg.random_patterns = 64;
  spec.atpg.run_podem = false;
  const CampaignResult result = session.run(spec);

  std::cout << "retscan " << version_string() << ": delivered "
            << result.scan_test.patterns_applied << " patterns on " << result.threads
            << " threads, " << result.scan_test.mismatches
            << " mismatches\n";
  return result.passed() && result.scan_test.patterns_applied > 0 ? 0 : 1;
}
