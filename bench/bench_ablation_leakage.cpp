// Ablation A-6: what the monitors cost *during sleep*. Power gating exists
// to kill leakage; the monitoring architecture adds always-on storage
// (parity memory, CRC/signature registers) that leaks through every sleep
// period. This bench quantifies sleep-mode leakage per configuration and
// the monitoring energy amortization: the minimum sleep duration for which
// entering the protected sleep (encode + decode energy) still beats
// staying awake — the system-level viability check the paper leaves
// implicit.

#include <iomanip>
#include <iostream>

#include "bench_util.hpp"
#include "retscan/netlist.hpp"
#include "retscan/design.hpp"

using namespace retscan;

int main() {
  bench::header("Ablation A-6 — sleep-mode leakage and break-even sleep time (32x32 FIFO)");
  const TechLibrary tech = TechLibrary::st120();
  ReliabilitySynthesizer synth([] { return make_fifo(FifoSpec{32, 32}); }, tech, 10.0);

  struct Config {
    const char* label;
    CodeKind kind;
    bool secded;
  };
  const Config configs[] = {
      {"CRC-16", CodeKind::CrcDetect, false},
      {"Hamming(7,4)", CodeKind::HammingCorrect, false},
      {"SEC-DED(8,4)", CodeKind::HammingCorrect, true},
      {"Hamming+CRC", CodeKind::HammingPlusCrc, false},
  };

  // Reference: active-mode leakage of the unprotected design (what we save
  // by sleeping) measured on the CRC design's gated domain.
  std::cout << "# config          sleep_leak_uW  active_leak_uW  enc+dec_nJ"
               "  breakeven_us\n"
            << std::fixed;
  bool ok = true;
  double crc_sleep_leak = 0.0, hamming_sleep_leak = 0.0;
  for (const Config& config : configs) {
    ProtectionConfig pc;
    pc.kind = config.kind;
    pc.secded = config.secded;
    pc.chain_count = 80;
    pc.test_width = 4;
    const CostRow row = synth.characterize(pc);

    const ProtectedDesign design(make_fifo(FifoSpec{32, 32}), pc);
    const double sleep_leak_uw =
        tech.sleep_leakage_nw(design.netlist(), kGatedDomain) * 1e-3;
    const double active_leak_uw =
        (tech.leakage_nw(design.netlist(), kGatedDomain) +
         tech.leakage_nw(design.netlist(), kAlwaysOnDomain)) *
        1e-3;
    const double monitoring_nj = row.enc_energy_nj + row.dec_energy_nj;
    // Break-even: leakage power saved must repay the coding energy.
    const double saved_uw = active_leak_uw - sleep_leak_uw;
    const double breakeven_us = saved_uw > 0 ? monitoring_nj / saved_uw * 1e3 : -1;

    std::cout << std::left << std::setw(17) << config.label << std::right
              << std::setprecision(2) << std::setw(13) << sleep_leak_uw
              << std::setw(16) << active_leak_uw << std::setw(12) << monitoring_nj
              << std::setprecision(1) << std::setw(14) << breakeven_us << "\n";

    ok = ok && sleep_leak_uw < active_leak_uw;  // sleeping must still save power
    ok = ok && breakeven_us > 0;
    if (config.kind == CodeKind::CrcDetect) {
      crc_sleep_leak = sleep_leak_uw;
    }
    if (config.kind == CodeKind::HammingCorrect && !config.secded) {
      hamming_sleep_leak = sleep_leak_uw;
    }
  }
  // The Hamming parity memory leaks meaningfully more than the CRC
  // registers through every sleep period.
  ok = ok && hamming_sleep_leak > crc_sleep_leak;

  std::cout << "\nSleep periods longer than the break-even column amortize the\n"
               "encode+decode energy; Hamming's always-on parity memory raises the\n"
               "sleep-mode leakage floor relative to CRC — an operating-point\n"
               "consideration the area/latency tables alone do not show.\n";
  std::cout << (ok ? "\n[ablation-leakage] PASS\n" : "\n[ablation-leakage] FAIL\n");
  return ok ? 0 : 1;
}
