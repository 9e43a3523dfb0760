#include "core/protected_design.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "circuits/fifo.hpp"
#include "coding/crc.hpp"
#include "coding/protectors.hpp"
#include "netlist/techlib.hpp"
#include "scan/scan_io.hpp"
#include "sim/artifact_store.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace retscan {
namespace {

/// Small FIFO with 80 flops (32 words x 2 bits + 2x5 pointer + 6 counter):
/// divisible into 8 chains of 10 — Hamming(7,4) groups of 4 chains and
/// CRC groups of 4 chains both fit, as does a test width of 4.
ProtectedDesign make_design(CodeKind kind) {
  ProtectionConfig config;
  config.kind = kind;
  config.chain_count = 8;
  config.test_width = 4;
  return ProtectedDesign(make_fifo(FifoSpec{32, 2}), config);
}

/// Fill the FIFO with random words so its state is interesting.
void randomize_state(RetentionSession& session, Rng& rng) {
  Simulator& sim = session.sim();
  sim.set_input("rd_en", false);
  for (int i = 0; i < 20; ++i) {
    sim.set_input("wr_en", true);
    sim.set_input("din0", rng.next_bool(0.5));
    sim.set_input("din1", rng.next_bool(0.5));
    sim.step();
  }
  sim.set_input("wr_en", false);
  sim.eval();
}

TEST(ProtectedDesign, ConstructionGeometry) {
  const ProtectedDesign design = make_design(CodeKind::HammingCorrect);
  EXPECT_EQ(design.chains().chain_count(), 8u);
  EXPECT_EQ(design.chain_length(), 10u);
  EXPECT_EQ(design.flop_count(), 80u);
  // All monitor cells are always-on; all base flops are gated.
  const Netlist& nl = design.netlist();
  for (const CellId flop : nl.flops()) {
    if (nl.cell(flop).type == CellType::Rdff) {
      EXPECT_EQ(nl.domain(flop), 1);
    } else {
      EXPECT_EQ(nl.domain(flop), kAlwaysOnDomain);  // parity/crc storage
    }
  }
}

TEST(ProtectedDesign, AreaAccountingSplitsBaseAndMonitor) {
  const TechLibrary tech = TechLibrary::st120();
  const ProtectedDesign hamming = make_design(CodeKind::HammingCorrect);
  const ProtectedDesign crc = make_design(CodeKind::CrcDetect);
  EXPECT_GT(hamming.base_area(tech).total_um2, 0.0);
  EXPECT_GT(hamming.monitor_area(tech).total_um2, 0.0);
  EXPECT_GT(hamming.overhead_percent(tech), 0.0);
  // Hamming monitors (parity memory!) cost more than the single wide CRC
  // block — the contrast of Tables I vs II. (At this toy scale, l = 10,
  // the gap is small; the bench over the real 32x32 FIFO shows ~10x.)
  EXPECT_GT(hamming.overhead_percent(tech), crc.overhead_percent(tech));
  // Base area is identical across code kinds.
  EXPECT_DOUBLE_EQ(hamming.base_area(tech).total_um2, crc.base_area(tech).total_um2);
}

TEST(ProtectedDesign, EncodePreservesState) {
  const ProtectedDesign design = make_design(CodeKind::HammingPlusCrc);
  RetentionSession session(design);
  Rng rng(1);
  randomize_state(session, rng);
  const auto before = scan_snapshot(session.sim(), design.chains());
  session.encode();
  EXPECT_EQ(scan_snapshot(session.sim(), design.chains()), before);
}

TEST(ProtectedDesign, CleanSleepWakeCyclePreservesState) {
  const ProtectedDesign design = make_design(CodeKind::HammingPlusCrc);
  RetentionSession session(design);
  Rng rng(2);
  randomize_state(session, rng);
  const auto before = scan_snapshot(session.sim(), design.chains());
  const auto outcome = session.sleep_wake_cycle({}, &rng);
  EXPECT_FALSE(outcome.errors_detected);
  EXPECT_TRUE(outcome.recheck_clean);
  EXPECT_EQ(outcome.final_state, PgState::Active);
  EXPECT_EQ(outcome.decode_passes, 1u);
  EXPECT_EQ(scan_snapshot(session.sim(), design.chains()), before);
}

TEST(ProtectedDesign, SingleUpsetDetectedAndCorrected) {
  const ProtectedDesign design = make_design(CodeKind::HammingPlusCrc);
  RetentionSession session(design);
  Rng rng(3);
  randomize_state(session, rng);
  const auto before = scan_snapshot(session.sim(), design.chains());
  const auto outcome = session.sleep_wake_cycle({ErrorLocation{3, 7}}, &rng);
  EXPECT_TRUE(outcome.errors_detected);
  EXPECT_TRUE(outcome.recheck_clean);
  EXPECT_EQ(outcome.final_state, PgState::Active);
  EXPECT_EQ(outcome.decode_passes, 2u);
  EXPECT_EQ(scan_snapshot(session.sim(), design.chains()), before);
}

/// The paper's experiment 1 at integration scale: every possible single
/// retention upset in the design is corrected.
TEST(ProtectedDesign, EverySingleUpsetLocationCorrected) {
  const ProtectedDesign design = make_design(CodeKind::HammingCorrect);
  RetentionSession session(design);
  Rng rng(4);
  randomize_state(session, rng);
  const auto before = scan_snapshot(session.sim(), design.chains());
  for (std::size_t chain = 0; chain < 8; ++chain) {
    for (std::size_t pos = 0; pos < 10; ++pos) {
      const auto outcome =
          session.sleep_wake_cycle({ErrorLocation{chain, pos}}, nullptr);
      ASSERT_TRUE(outcome.errors_detected) << chain << "," << pos;
      ASSERT_TRUE(outcome.recheck_clean) << chain << "," << pos;
      ASSERT_EQ(scan_snapshot(session.sim(), design.chains()), before)
          << chain << "," << pos;
    }
  }
}

TEST(ProtectedDesign, ScatteredUpsetsInDistinctWordsCorrected) {
  const ProtectedDesign design = make_design(CodeKind::HammingPlusCrc);
  RetentionSession session(design);
  Rng rng(5);
  randomize_state(session, rng);
  const auto before = scan_snapshot(session.sim(), design.chains());
  // Three upsets in three distinct (group, position) words.
  const std::vector<ErrorLocation> upsets = {
      {0, 2}, {5, 7}, {2, 9}};
  const auto outcome = session.sleep_wake_cycle(upsets, &rng);
  EXPECT_TRUE(outcome.errors_detected);
  EXPECT_TRUE(outcome.recheck_clean);
  EXPECT_EQ(outcome.final_state, PgState::Active);
  EXPECT_EQ(scan_snapshot(session.sim(), design.chains()), before);
}

/// The paper's experiment 2: clustered burst errors land in the same
/// codeword; Hamming cannot repair them but the CRC arm flags the state as
/// uncorrectable instead of silently accepting a miscorrection.
TEST(ProtectedDesign, ClusteredBurstFlaggedUncorrectable) {
  const ProtectedDesign design = make_design(CodeKind::HammingPlusCrc);
  RetentionSession session(design);
  Rng rng(6);
  randomize_state(session, rng);
  const auto before = scan_snapshot(session.sim(), design.chains());
  // Two upsets in the same Hamming word (chains 0 and 2 are in group 0;
  // same position -> same codeword).
  const std::vector<ErrorLocation> burst = {{0, 4}, {2, 4}};
  const auto outcome = session.sleep_wake_cycle(burst, &rng);
  EXPECT_TRUE(outcome.errors_detected);
  EXPECT_FALSE(outcome.recheck_clean);
  EXPECT_EQ(outcome.final_state, PgState::ErrorFlagged);
  EXPECT_NE(scan_snapshot(session.sim(), design.chains()), before);
}

TEST(ProtectedDesign, CrcOnlyDetectsButNeverCorrects) {
  const ProtectedDesign design = make_design(CodeKind::CrcDetect);
  RetentionSession session(design);
  Rng rng(7);
  randomize_state(session, rng);
  const auto outcome = session.sleep_wake_cycle({ErrorLocation{1, 1}}, &rng);
  EXPECT_TRUE(outcome.errors_detected);
  EXPECT_FALSE(outcome.recheck_clean);
  EXPECT_EQ(outcome.final_state, PgState::ErrorFlagged);
  EXPECT_EQ(outcome.decode_passes, 1u);
}

TEST(ProtectedDesign, FsmHistoryMatchesFigure3b) {
  const ProtectedDesign design = make_design(CodeKind::HammingCorrect);
  RetentionSession session(design);
  Rng rng(8);
  randomize_state(session, rng);
  session.sleep_wake_cycle({ErrorLocation{0, 0}}, &rng);
  const auto& history = session.fsm().history();
  const std::vector<PgState> expected = {
      PgState::Active,    PgState::Encoding,  PgState::SleepEntry,
      PgState::Sleep,     PgState::WakeUp,    PgState::Decoding,
      PgState::Correcting, PgState::Active};
  EXPECT_EQ(history, expected);
}

/// Structural decode must agree bit-for-bit with the behavioral
/// HammingChainProtector — including miscorrections on multi-error words.
TEST(ProtectedDesign, StructuralMatchesBehavioralProtector) {
  const ProtectedDesign design = make_design(CodeKind::HammingCorrect);
  RetentionSession session(design);
  Rng rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    randomize_state(session, rng);
    const auto reference = scan_snapshot(session.sim(), design.chains());

    // Behavioral model.
    HammingChainProtector protector(HammingCode::h7_4(), 8, 10);
    protector.encode(reference);
    auto behavioral = reference;
    const std::size_t error_count = 1 + rng.next_below(4);
    std::vector<ErrorLocation> upsets;
    for (std::size_t i = 0; i < error_count; ++i) {
      ErrorLocation loc{rng.next_below(8), rng.next_below(10)};
      if (std::find(upsets.begin(), upsets.end(), loc) == upsets.end()) {
        upsets.push_back(loc);
      }
    }
    ErrorInjector::flip_chain_data(behavioral, upsets);
    protector.decode_and_correct(behavioral);

    // Structural model.
    session.sleep_wake_cycle(upsets, nullptr);
    EXPECT_EQ(scan_snapshot(session.sim(), design.chains()), behavioral)
        << "trial " << trial;
    // Re-sync the design state for the next trial.
    scan_restore(session.sim(), design.chains(), reference);
  }
}

/// Manufacturing test through the Fig. 5(b) concatenation: with test_mode
/// high, the 8 chains behave as 4 chains of length 20; a pattern shifted in
/// through tsi comes back out of tso intact after a full traversal.
TEST(ProtectedDesign, TestModeConcatenationShiftsThrough) {
  const ProtectedDesign design = make_design(CodeKind::HammingPlusCrc);
  RetentionSession session(design);
  Simulator& sim = session.sim();
  const std::size_t concat_len =
      design.test_config().concatenated_length(design.chain_length());
  ASSERT_EQ(concat_len, 20u);

  Rng rng(10);
  std::vector<BitVec> streams;
  for (int g = 0; g < 4; ++g) {
    streams.push_back(rng.next_bits(concat_len));
  }
  sim.set_input(design.chains().se, true);
  sim.set_input("test_mode", true);
  sim.set_input("retain", false);
  // Load the full concatenated length.
  for (std::size_t t = 0; t < concat_len; ++t) {
    for (int g = 0; g < 4; ++g) {
      sim.set_input("tsi" + std::to_string(g), streams[g].get(t));
    }
    sim.step();
  }
  // Unload while shifting zeros behind; first-in bit emerges first.
  for (std::size_t t = 0; t < concat_len; ++t) {
    for (int g = 0; g < 4; ++g) {
      sim.set_input("tsi" + std::to_string(g), false);
      EXPECT_EQ(sim.output("tso" + std::to_string(g)), streams[g].get(t))
          << "group " << g << " cycle " << t;
    }
    sim.step();
  }
}

TEST(ProtectedDesign, ActivityMeasurementProducesSaneNumbers) {
  const TechLibrary tech = TechLibrary::st120();
  const ProtectedDesign design = make_design(CodeKind::HammingCorrect);
  RetentionSession session(design);
  Rng rng(11);
  randomize_state(session, rng);
  const ActivityReport enc = session.measure_encode(tech);
  EXPECT_EQ(enc.steps, design.chain_length() + 1);  // + clear strobe
  EXPECT_GT(enc.dynamic_energy_pj, 0.0);
  const double power_mw = enc.average_power_mw(10.0);  // 100 MHz
  EXPECT_GT(power_mw, 0.1);
  EXPECT_LT(power_mw, 100.0);
}

/// The CRC monitor's W-input parallel network against the serial CCITT
/// LFSR it is derived from: with the chains circulating, the structural
/// register must equal a Crc16 fed the W scan-out bits (chain 0 first) of
/// every cycle. W = 40 and 80 are past the 16 chains a 32-bit symbol mask
/// can hold.
TEST(ProtectedDesign, CrcMonitorMatchesSerialCrc) {
  for (const std::size_t chains : {std::size_t{16}, std::size_t{40}, std::size_t{80}}) {
    SCOPED_TRACE(std::to_string(chains) + " chains");
    ProtectionConfig config;
    config.kind = CodeKind::CrcDetect;
    config.chain_count = chains;
    const ProtectedDesign design(make_fifo(FifoSpec{32, 32}), config);
    const Netlist& nl = design.netlist();
    std::vector<CellId> crc_ff(16, kNullCell);
    for (CellId id = 0; id < nl.cell_count(); ++id) {
      const std::string& name = nl.cell(id).name;
      if (name.rfind("crc0_", 0) == 0) {
        crc_ff[std::stoul(name.substr(5))] = id;
      }
    }
    ASSERT_EQ(std::count(crc_ff.begin(), crc_ff.end(), kNullCell), 0);

    Simulator sim(nl);
    Rng rng(chains);
    std::vector<std::pair<CellId, bool>> state;
    for (const auto& chain : design.chains().chains) {
      for (const CellId flop : chain) {
        state.emplace_back(flop, rng.next_bool(0.5));
      }
    }
    sim.set_flop_states(state);
    sim.set_input(design.chains().se, true);
    sim.set_input(design.controls().mon_en, true);
    sim.eval();

    Crc16 serial = Crc16::ccitt();
    // Two circulations: the second absorbs the state the first restored.
    for (std::size_t cycle = 0; cycle < 2 * design.chain_length(); ++cycle) {
      for (const NetId so : design.chains().so) {
        serial.shift_bit(sim.net_value(so));
      }
      sim.step();
      std::uint16_t structural = 0;
      for (unsigned i = 0; i < 16; ++i) {
        if (sim.flop_state(crc_ff[i])) {
          structural |= static_cast<std::uint16_t>(1u << i);
        }
      }
      EXPECT_EQ(structural, serial.value()) << "cycle " << cycle;
      if (structural != serial.value()) {
        break;  // one report per width
      }
    }
  }
}

/// What synthesis builds, pinned on FIFO slices and two imports. Each row
/// folds the netlist_structure_fingerprint of every variant, in the order
/// code kind (crc, hamming, hamming+crc) x SEC-DED (off, on) x hardware
/// controller (off, on), into one digest, recorded at retscan 4.0. The
/// CRC-bearing 80-chain rows were recorded at 6.0, when CRC synthesis past
/// 16 chains became defined (CrcMonitorMatchesSerialCrc checks it). s27's
/// 3 chains hold no Hamming word, so it is pinned with CRC only.
TEST(ProtectedDesign, SynthesisIsPinned) {
  const std::vector<CodeKind> all_kinds = {CodeKind::CrcDetect, CodeKind::HammingCorrect,
                                           CodeKind::HammingPlusCrc};
  const std::vector<CodeKind> crc_kinds = {CodeKind::CrcDetect, CodeKind::HammingPlusCrc};
  const struct {
    const char* import;      // bench/circuits file, or nullptr for the FIFO
    std::size_t fifo_width;  // of a 32-word FIFO slice
    std::size_t chains;
    std::size_t test_width;
    std::vector<CodeKind> kinds;
    std::uint64_t digest;
  } rows[] = {
      {nullptr, 2, 8, 2, all_kinds, 0xfffd2fed1ac89976ull},
      {nullptr, 2, 8, 4, all_kinds, 0x942ee644ba147ab6ull},
      {nullptr, 4, 8, 2, all_kinds, 0x8a469a04e55f40e3ull},
      {nullptr, 4, 8, 4, all_kinds, 0x7da544095a1c964full},
      {nullptr, 32, 16, 2, all_kinds, 0xa38b559424c192cbull},
      {nullptr, 32, 16, 4, all_kinds, 0xddd18d0fbe1cd0d3ull},
      {nullptr, 32, 80, 2, {CodeKind::HammingCorrect}, 0x63f13df28f4434d7ull},
      {nullptr, 32, 80, 4, {CodeKind::HammingCorrect}, 0xd6447f83b3c8574full},
      {nullptr, 32, 80, 2, crc_kinds, 0xabc11bba8b68f23aull},
      {nullptr, 32, 80, 4, crc_kinds, 0xc5d690593b89cc2full},
      {"ctrl344.v", 0, 4, 2, all_kinds, 0x04229914e43b914cull},
      {"ctrl344.v", 0, 4, 4, all_kinds, 0x6923bfd8e84da89dull},
      {"s27.v", 0, 3, 3, {CodeKind::CrcDetect}, 0xe3b1ba24d2690c23ull},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE((row.import != nullptr ? std::string(row.import)
                                        : "32x" + std::to_string(row.fifo_width)) +
                 ", " + std::to_string(row.chains) + " chains, test width " +
                 std::to_string(row.test_width));
    Fnv1a digest;
    for (const CodeKind kind : row.kinds) {
      for (const bool secded : {false, true}) {
        for (const bool hardware_controller : {false, true}) {
          ProtectionConfig config;
          config.kind = kind;
          config.secded = secded;
          config.hardware_controller = hardware_controller;
          config.chain_count = row.chains;
          config.test_width = row.test_width;
          Netlist base =
              row.import != nullptr
                  ? Netlist::from_verilog(std::string(RETSCAN_CIRCUITS_DIR) + "/" + row.import)
                  : make_fifo(FifoSpec{32, row.fifo_width});
          const ProtectedDesign design(std::move(base), config);
          digest.add(netlist_structure_fingerprint(design.netlist()));
        }
      }
    }
    EXPECT_EQ(digest.hash, row.digest);
  }
}

TEST(ProtectedDesign, RejectsGeometryMismatches) {
  ProtectionConfig config;
  config.kind = CodeKind::HammingCorrect;
  config.chain_count = 10;  // not a multiple of k=4
  config.test_width = 5;
  EXPECT_THROW(ProtectedDesign(make_fifo(FifoSpec{32, 2}), config), Error);
}

}  // namespace
}  // namespace retscan
