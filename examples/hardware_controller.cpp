// Autonomous hardware-controlled sleep/wake with waveform dump: the
// generated Fig. 3(b) controller runs the whole protection protocol in
// gates; this example requests sleep, injects a retention upset, and
// writes a VCD of the control signals (open with gtkwave).
//
//   ./build/example_hardware_controller && gtkwave retscan_episode.vcd

#include <fstream>
#include <iostream>

#include "retscan/design.hpp"
#include "retscan/netlist.hpp"
#include "retscan/sim.hpp"

using namespace retscan;

int main() {
  ProtectionConfig config;
  config.kind = CodeKind::HammingPlusCrc;
  config.chain_count = 8;
  config.test_width = 4;
  config.hardware_controller = true;
  const ProtectedDesign design(make_fifo(FifoSpec{32, 2}), config);
  std::cout << "design with hardware controller: " << design.netlist().cell_count()
            << " cells\n";

  HardwareRetentionSession session(design);
  Rng rng(2024);
  std::vector<BitVec> state;
  for (int c = 0; c < 8; ++c) {
    state.push_back(rng.next_bits(10));
  }
  scan_restore(session.sim(), design.chains(), state);

  std::ofstream vcd_file("retscan_episode.vcd");
  VcdWriter vcd(vcd_file, session.sim());
  for (const char* signal : {"sleep", "ctrl_se", "ctrl_retain", "mon_en",
                             "mon_decode", "mon_clear", "sig_capture", "sig_compare"}) {
    vcd.add_signal(signal);
  }
  vcd.add_signal(design.netlist().output_net("pswitch_en"), "pswitch_en");
  vcd.add_signal(design.netlist().output_net("ctrl_error"), "ctrl_error");
  vcd.add_signal(design.netlist().output_net("ctrl_active"), "ctrl_active");
  vcd.add_signal(design.netlist().output_net("mon_err"), "mon_err");
  vcd.write_header("pg_controller");

  // Episode: sleep request, upset while down, autonomous wake + repair.
  session.set_sleep(true);
  std::size_t cycles = 0;
  auto tick = [&] {
    vcd.sample();
    session.step();
    ++cycles;
  };
  while (!session.asleep() && cycles < 1000) {
    tick();
  }
  std::cout << "asleep after " << cycles << " cycles; injecting upset at chain 5 pos 2\n";
  session.corrupt({ErrorLocation{5, 2}});
  session.set_sleep(false);
  while (!session.active() && !session.error() && cycles < 1000) {
    tick();
  }
  vcd.sample();

  const bool restored = scan_snapshot(session.sim(), design.chains()) == state;
  std::cout << "controller state: " << (session.error() ? "ERROR" : "active")
            << " after " << cycles << " cycles\n"
            << "state restored bit-exactly: " << (restored ? "yes" : "no") << "\n"
            << "waveform written to retscan_episode.vcd\n";
  return (restored && session.active()) ? 0 : 1;
}
