// Gate-level power-gating controller (Fig. 3(b) as hardware): the whole
// encode/sleep/wake/decode/correct sequence runs autonomously in generated
// logic, driven only by the `sleep` request.

#include <gtest/gtest.h>

#include "circuits/fifo.hpp"
#include "core/protected_design.hpp"
#include "netlist/lint.hpp"
#include "scan/scan_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace retscan {
namespace {

ProtectedDesign make_hw_design(CodeKind kind, bool secded = false) {
  ProtectionConfig config;
  config.kind = kind;
  config.secded = secded;
  config.chain_count = 8;
  config.test_width = 4;
  config.hardware_controller = true;
  return ProtectedDesign(make_fifo(FifoSpec{32, 2}), config);
}

std::vector<BitVec> random_state(HardwareRetentionSession& session,
                                 const ProtectedDesign& design, Rng& rng) {
  std::vector<BitVec> state;
  for (std::size_t c = 0; c < design.chains().chain_count(); ++c) {
    state.push_back(rng.next_bits(design.chain_length()));
  }
  scan_restore(session.sim(), design.chains(), state);
  return state;
}

TEST(HardwareController, NetlistIsStructurallySound) {
  const ProtectedDesign design = make_hw_design(CodeKind::HammingPlusCrc);
  const auto issues = lint_netlist(design.netlist());
  EXPECT_EQ(lint_count(issues, LintKind::UndrivenNet), 0u);
  EXPECT_EQ(lint_count(issues, LintKind::CombinationalLoop), 0u);
  // Floating ports: 8 si + the se/retain ports the controller took over.
  EXPECT_EQ(lint_count(issues, LintKind::FloatingInput), 10u);
}

TEST(HardwareController, StartsActiveAndIdles) {
  const ProtectedDesign design = make_hw_design(CodeKind::HammingPlusCrc);
  HardwareRetentionSession session(design);
  EXPECT_TRUE(session.active());
  EXPECT_FALSE(session.error());
  EXPECT_FALSE(session.asleep());
  session.step(20);
  EXPECT_TRUE(session.active());  // nothing happens without a sleep request
}

TEST(HardwareController, CleanSleepWakePreservesState) {
  const ProtectedDesign design = make_hw_design(CodeKind::HammingPlusCrc);
  HardwareRetentionSession session(design);
  Rng rng(1);
  const auto state = random_state(session, design, rng);
  const auto outcome = session.run_sleep_wake({});
  EXPECT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.error);
  EXPECT_EQ(scan_snapshot(session.sim(), design.chains()), state);
  // Sequence length: clear + encode(10) + capture + save + sleep(>=1) +
  // wake settle(4) + restore + clear + decode(10) + compare + check ~ 32.
  EXPECT_GE(outcome.cycles, 28u);
  EXPECT_LE(outcome.cycles, 40u);
}

TEST(HardwareController, SingleUpsetCorrectedAutonomously) {
  const ProtectedDesign design = make_hw_design(CodeKind::HammingPlusCrc);
  HardwareRetentionSession session(design);
  Rng rng(2);
  const auto state = random_state(session, design, rng);
  const auto outcome = session.run_sleep_wake({ErrorLocation{3, 7}});
  EXPECT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.error);
  EXPECT_EQ(scan_snapshot(session.sim(), design.chains()), state);
  // The correction recheck adds a second decode pass: noticeably longer.
  EXPECT_GE(outcome.cycles, 38u);
}

TEST(HardwareController, EverySingleUpsetLocationCorrected) {
  const ProtectedDesign design = make_hw_design(CodeKind::HammingCorrect);
  HardwareRetentionSession session(design);
  Rng rng(3);
  const auto state = random_state(session, design, rng);
  for (std::size_t chain = 0; chain < 8; ++chain) {
    for (std::size_t pos = 0; pos < 10; pos += 3) {
      const auto outcome = session.run_sleep_wake({ErrorLocation{chain, pos}});
      ASSERT_TRUE(outcome.completed) << chain << "," << pos;
      ASSERT_FALSE(outcome.error) << chain << "," << pos;
      ASSERT_EQ(scan_snapshot(session.sim(), design.chains()), state)
          << chain << "," << pos;
    }
  }
}

TEST(HardwareController, SameWordBurstLandsInErrorState) {
  const ProtectedDesign design = make_hw_design(CodeKind::HammingPlusCrc);
  HardwareRetentionSession session(design);
  Rng rng(4);
  random_state(session, design, rng);
  const auto outcome =
      session.run_sleep_wake({ErrorLocation{0, 4}, ErrorLocation{2, 4}});
  EXPECT_FALSE(outcome.completed);
  EXPECT_TRUE(outcome.error);
}

TEST(HardwareController, CrcOnlyFlagsWithoutCorrecting) {
  const ProtectedDesign design = make_hw_design(CodeKind::CrcDetect);
  HardwareRetentionSession session(design);
  Rng rng(5);
  random_state(session, design, rng);
  const auto outcome = session.run_sleep_wake({ErrorLocation{1, 1}});
  EXPECT_FALSE(outcome.completed);
  EXPECT_TRUE(outcome.error);
}

TEST(HardwareController, SecDedControllerRefusesDoubleMiscorrection) {
  const ProtectedDesign design = make_hw_design(CodeKind::HammingCorrect, true);
  HardwareRetentionSession session(design);
  Rng rng(6);
  const auto state = random_state(session, design, rng);
  const auto outcome =
      session.run_sleep_wake({ErrorLocation{0, 4}, ErrorLocation{2, 4}});
  EXPECT_TRUE(outcome.error);
  // Exactly the two injected flips remain — no miscorrection.
  auto expected = state;
  expected[0].flip(4);
  expected[2].flip(4);
  EXPECT_EQ(scan_snapshot(session.sim(), design.chains()), expected);
}

TEST(HardwareController, StaysAsleepWhileRequested) {
  const ProtectedDesign design = make_hw_design(CodeKind::HammingPlusCrc);
  HardwareRetentionSession session(design);
  Rng rng(7);
  random_state(session, design, rng);
  session.set_sleep(true);
  session.step(40);
  EXPECT_TRUE(session.asleep());
  session.step(50);
  EXPECT_TRUE(session.asleep());  // holds as long as sleep is asserted
  session.set_sleep(false);
  session.step(40);
  EXPECT_TRUE(session.active());
}

TEST(HardwareController, BackToBackEpisodes) {
  const ProtectedDesign design = make_hw_design(CodeKind::HammingPlusCrc);
  HardwareRetentionSession session(design);
  Rng rng(8);
  const auto state = random_state(session, design, rng);
  for (int episode = 0; episode < 5; ++episode) {
    const auto outcome =
        session.run_sleep_wake({ErrorLocation{static_cast<std::size_t>(episode), 3}});
    ASSERT_TRUE(outcome.completed) << episode;
    ASSERT_EQ(scan_snapshot(session.sim(), design.chains()), state) << episode;
  }
}

TEST(HardwareController, SessionTypeGuards) {
  const ProtectedDesign hw = make_hw_design(CodeKind::HammingPlusCrc);
  EXPECT_THROW(RetentionSession{hw}, Error);

  ProtectionConfig sw_config;
  sw_config.kind = CodeKind::HammingPlusCrc;
  sw_config.chain_count = 8;
  sw_config.test_width = 4;
  const ProtectedDesign sw(make_fifo(FifoSpec{32, 2}), sw_config);
  EXPECT_THROW(HardwareRetentionSession{sw}, Error);
}

}  // namespace
}  // namespace retscan
