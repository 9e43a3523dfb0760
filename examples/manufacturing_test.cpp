// Manufacturing-test walkthrough (Section III): generate a production
// stuck-at pattern set for the protected design with the built-in ATPG
// (random + PODEM), then deliver it through the narrow tsi/tso test ports
// using the Fig. 5(b) chain concatenation — proving the monitoring
// architecture is transparent to test. One ScanTest CampaignSpec does the
// whole flow; the unbundled Session calls below show the pieces.
//
//   ./build/example_manufacturing_test

#include <iostream>

#include "retscan/retscan.hpp"

using namespace retscan;

int main() {
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.chain_count = 8;
  protection.test_width = 4;
  Session session(FifoSpec{32, 2}, protection);
  std::cout << "design: " << session.netlist().cell_count() << " cells, 8 chains of "
            << session.design().chain_length() << ", test I/O width 4\n";
  std::cout << "test-mode chains: 4 concatenated chains of "
            << session.design().test_config().concatenated_length(
                   session.design().chain_length())
            << " flops (Fig. 5(b))\n";
  std::cout << "collapsed stuck-at fault list: " << session.faults().size()
            << " faults\n";

  // Piecewise: generate on the session's capture-constrained frame...
  AtpgOptions options;
  options.random_patterns = 512;
  options.max_backtracks = 300;
  const AtpgResult atpg = session.run_atpg(options);
  std::cout << "ATPG: coverage " << 100.0 * atpg.coverage() << "% ("
            << atpg.detected_random << " random, " << atpg.detected_podem
            << " PODEM, " << atpg.untestable << " proven untestable, "
            << atpg.aborted << " aborted) with " << atpg.patterns.size()
            << " patterns\n";

  // ...then deliver through the tsi/tso concatenation. Backend::Reference is
  // the scalar tester oracle; the default (Auto) is pooled 64-lane delivery.
  const ScanTestResult delivery = session.run_scan_test(
      atpg.patterns, {.backend = Backend::Reference});
  std::cout << "delivered " << delivery.patterns_applied
            << " patterns through tsi/tso: " << delivery.mismatches
            << " mismatches\n";

  // Or as one declarative campaign (ATPG + pooled delivery, same seed knob).
  CampaignSpec spec;
  spec.kind = CampaignKind::ScanTest;
  spec.atpg = options;
  const CampaignResult campaign = session.run(spec);
  std::cout << "campaign: " << campaign.scan_test.patterns_applied
            << " patterns on " << to_string(campaign.backend) << " ("
            << campaign.threads << " threads), " << campaign.scan_test.mismatches
            << " mismatches\n";
  std::cout << (delivery.all_passed() && campaign.passed()
                    ? "manufacturing test unaffected by the monitoring logic.\n"
                    : "DELIVERY FAILED\n");
  return delivery.all_passed() && campaign.passed() ? 0 : 1;
}
