// Equivalence tests of the event schedule (sim/schedule.hpp), whose settle
// is CompiledNetlist::propagate with a budget checked at level boundaries:
// the budgeted scan must match a level-bucket worklist kept here as its
// oracle ({evaluated, fell_back}, values, a cleared bitmap) at word and
// block lane widths, and eval_full once a fallback is finished; PODEM's
// budget-free propagate must match eval_full; event-scheduled engines must
// match sweep-scheduled engines net-for-net through power cycles and on
// the vendored ISCAS benches; campaign statistics must be
// schedule-invariant; and the telemetry of a few campaigns and of
// bench_validation's low-activity workload is pinned. The random-design
// tests run RETSCAN_FUZZ_SEEDS seeds (tests/fuzz_seeds.hpp).

#include "sim/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "circuits/fifo.hpp"
#include "core/protected_design.hpp"
#include "fuzz_seeds.hpp"
#include "netlist/netlist.hpp"
#include "parallel/campaign_runner.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/packed_sim.hpp"
#include "sim/simulator.hpp"
#include "testbench/harness.hpp"
#include "util/rng.hpp"

#ifndef RETSCAN_CIRCUITS_DIR
#define RETSCAN_CIRCUITS_DIR "bench/circuits"
#endif

namespace retscan {

void PrintTo(const ScheduleTelemetry& t, std::ostream* os) {
  *os << "{event " << t.event_sweeps << ", full " << t.full_sweeps << ", fallbacks "
      << t.full_sweep_fallbacks << ", event instrs " << t.event_instrs << ", sweep instrs "
      << t.sweep_instrs << ", capacity " << t.instr_capacity << "}";
}

void PrintTo(const ValidationStats& s, std::ostream* os) {
  *os << "{sequences " << s.sequences << ", injected " << s.errors_injected
      << ", with-errors " << s.sequences_with_errors << ", detected " << s.detected
      << ", corrected " << s.corrected << ", flagged " << s.flagged_uncorrectable
      << ", mismatches " << s.comparator_mismatches << ", silent "
      << s.silent_corruptions << "}";
}

namespace {

/// Random layered netlist with retention flops and gated logic — the same
/// shape the engine equivalence suites use, so event scheduling is tested
/// through clamps, RETAIN traffic and balloon-latch save/restore.
struct RandomDesign {
  Netlist nl;
  std::vector<NetId> data_inputs;
  std::vector<CellId> rdffs;
};

RandomDesign random_design(Rng& rng) {
  RandomDesign d;
  Netlist& nl = d.nl;
  const NetId se = nl.add_input("se");
  const NetId retain = nl.add_input("retain");
  std::vector<NetId> pool;
  for (int i = 0; i < 4; ++i) {
    const NetId in = nl.add_input("a" + std::to_string(i));
    d.data_inputs.push_back(in);
    pool.push_back(in);
  }
  auto random_gate = [&]() {
    const NetId a = pool[rng.next_below(pool.size())];
    const NetId b = pool[rng.next_below(pool.size())];
    switch (rng.next_below(7)) {
      case 0: return nl.n_and(a, b);
      case 1: return nl.n_or(a, b);
      case 2: return nl.n_xor(a, b);
      case 3: return nl.n_nand(a, b);
      case 4: return nl.n_nor(a, b);
      case 5: return nl.n_not(a);
      default: return nl.n_mux(a, b, pool[rng.next_below(pool.size())]);
    }
  };
  for (int layer = 0; layer < 2; ++layer) {
    for (int g = 0; g < 12; ++g) {
      pool.push_back(random_gate());
    }
    NetId scan_prev = se;
    for (int f = 0; f < 4; ++f) {
      const NetId q = nl.n_dff(pool[rng.next_below(pool.size())]);
      const CellId flop = nl.driver(q);
      if (rng.next_bool(0.5)) {
        nl.convert_flop(flop, CellType::Rdff, {scan_prev, se, retain});
        nl.set_domain(flop, 1);
        d.rdffs.push_back(flop);
        scan_prev = q;
      }
      pool.push_back(q);
    }
  }
  for (int g = 0; g < 4; ++g) {
    const NetId y = random_gate();
    nl.set_domain(nl.driver(y), 1);
    pool.push_back(y);
  }
  nl.add_output("y0", pool[pool.size() - 1]);
  nl.add_output("y1", nl.n_xor_tree({pool[4], pool[7], pool[pool.size() - 2]}));
  return d;
}

/// Source slots of a compiled netlist: everything no instruction writes.
std::vector<std::uint32_t> source_slots(const CompiledNetlist& compiled) {
  std::vector<bool> written(compiled.slot_count(), false);
  for (const CompiledInstr& in : compiled.instrs()) {
    written[in.out] = true;
  }
  std::vector<std::uint32_t> sources;
  for (std::uint32_t s = 0; s < compiled.slot_count(); ++s) {
    if (!written[s]) {
      sources.push_back(s);
    }
  }
  return sources;
}

/// Per-instruction levels computed from the operands (source slots sit at
/// level 0, an instruction one above its deepest operand), independently
/// of the compiled core's level offsets.
std::vector<std::uint32_t> levels_of(const CompiledNetlist& compiled) {
  std::vector<std::uint32_t> slot_level(compiled.slot_count(), 0);
  std::vector<std::uint32_t> level;
  for (const CompiledInstr& in : compiled.instrs()) {
    std::uint32_t l = 0;
    for (std::size_t pin = 0; pin < operand_count(in.op); ++pin) {
      l = std::max(l, slot_level[in.operand(pin)]);
    }
    level.push_back(l);
    slot_level[in.out] = l + 1;
  }
  return level;
}

/// The oracle of the budgeted settle, a level-bucket worklist: readers of
/// changed slots are scheduled into per-level buckets, drained in level
/// order, and a bucket that would take the count past `budget` stops the
/// settle.
template <typename Store>
CompiledNetlist::Settle bucket_settle(const CompiledNetlist& compiled,
                                      const std::vector<std::uint32_t>& level,
                                      const std::vector<std::uint32_t>& dirty,
                                      std::size_t budget, Store&& store) {
  const std::uint32_t depth =
      level.empty() ? 0 : *std::max_element(level.begin(), level.end()) + 1;
  std::vector<std::vector<std::uint32_t>> buckets(depth);
  std::vector<bool> scheduled(level.size(), false);
  const auto schedule_readers = [&](std::uint32_t s) {
    for (const std::uint32_t i : compiled.readers(s)) {
      if (!scheduled[i]) {
        scheduled[i] = true;
        buckets[level[i]].push_back(i);
      }
    }
  };
  for (const std::uint32_t s : dirty) {
    schedule_readers(s);
  }
  CompiledNetlist::Settle result;
  for (const std::vector<std::uint32_t>& bucket : buckets) {
    if (bucket.empty()) {
      continue;
    }
    if (result.evaluated + bucket.size() > budget) {
      result.fell_back = true;
      return result;
    }
    // Readers sit on strictly higher levels, so this bucket stays put.
    for (const std::uint32_t i : bucket) {
      if (store(compiled.instrs()[i])) {
        schedule_readers(compiled.instrs()[i].out);
      }
    }
    result.evaluated += bucket.size();
  }
  return result;
}

LaneWord random_lanes(Rng& rng, LaneWord) { return rng.next_u64(); }

LaneBlock random_lanes(Rng& rng, const LaneBlock&) {
  LaneBlock block;
  for (std::size_t w = 0; w < kLaneWords; ++w) {
    block.w[w] = rng.next_u64();
  }
  return block;
}

/// Budgeted propagate against the level-bucket oracle at one lane width:
/// on random designs and random dirty sets, at budgets from 0 past the
/// stream size, both must report the same {evaluated, fell_back} and leave
/// the same values, propagate's bitmap must be all zero on return, and a
/// fallen-back settle finished by eval_full must match eval_full alone.
template <typename Lanes>
void check_budgeted_propagate() {
  std::size_t fallbacks = 0;
  std::size_t completed = 0;
  for (std::uint64_t seed = 1; seed <= fuzz_seed_count(); ++seed) {
    Rng rng(seed);
    const RandomDesign d = random_design(rng);
    const auto compiled = d.nl.compiled();
    const std::vector<std::uint32_t> level = levels_of(*compiled);
    ASSERT_TRUE(std::is_sorted(level.begin(), level.end()));
    const std::vector<std::uint32_t> sources = source_slots(*compiled);
    ASSERT_FALSE(sources.empty());

    std::vector<Lanes> oracle(compiled->slot_count(), Lanes{});
    for (const std::uint32_t s : sources) {
      oracle[s] = random_lanes(rng, Lanes{});
    }
    compiled->eval_full(oracle.data());
    std::vector<Lanes> scanned = oracle;
    std::vector<Lanes> bucketed = oracle;
    std::vector<std::uint64_t> pending((compiled->instrs().size() + 63) / 64, 0);
    const std::size_t stream = compiled->instrs().size();
    for (std::size_t settle = 0; settle < stream + 3; ++settle) {
      std::vector<std::uint32_t> dirty;
      const std::size_t changes = 1 + rng.next_below(settle % 4 == 0 ? sources.size() : 2);
      for (std::size_t c = 0; c < changes; ++c) {
        const std::uint32_t s = sources[rng.next_below(sources.size())];
        oracle[s] = scanned[s] = bucketed[s] = random_lanes(rng, Lanes{});
        dirty.push_back(s);  // duplicates and unchanged slots are harmless
      }
      compiled->eval_full(oracle.data());
      const auto store_into = [](std::vector<Lanes>& values) {
        return [&values](const CompiledInstr& in) {
          const Lanes value = CompiledNetlist::eval_instr(in, values.data());
          if (values[in.out] == value) {
            return false;
          }
          values[in.out] = value;
          return true;
        };
      };
      const std::size_t budget = settle;  // 0, 1, ... past the stream size
      const CompiledNetlist::Settle want =
          bucket_settle(*compiled, level, dirty, budget, store_into(bucketed));
      const CompiledNetlist::Settle got =
          compiled->propagate(dirty, pending, store_into(scanned), budget);
      SCOPED_TRACE("seed " + std::to_string(seed) + " budget " + std::to_string(budget));
      EXPECT_EQ(got.evaluated, want.evaluated);
      EXPECT_EQ(got.fell_back, want.fell_back);
      EXPECT_EQ(std::count(pending.begin(), pending.end(), 0u),
                static_cast<std::ptrdiff_t>(pending.size()));
      for (std::uint32_t s = 0; s < compiled->slot_count(); ++s) {
        ASSERT_TRUE(scanned[s] == bucketed[s]) << "slot " << s;
      }
      if (got.fell_back) {
        // Partial work is final; the full sweep just completes it.
        compiled->eval_full(scanned.data());
        compiled->eval_full(bucketed.data());
      }
      ++(got.fell_back ? fallbacks : completed);
      for (std::uint32_t s = 0; s < compiled->slot_count(); ++s) {
        ASSERT_TRUE(scanned[s] == oracle[s]) << "slot " << s;
      }
    }
  }
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(completed, 0u);
}

TEST(BudgetedPropagate, MatchesLevelBucketsAtWordWidth) {
  check_budgeted_propagate<LaneWord>();
}

TEST(BudgetedPropagate, MatchesLevelBucketsAtBlockWidth) {
  check_budgeted_propagate<LaneBlock>();
}

/// propagate (PODEM's budget-free settle: one ascending scan of a bitmap
/// over instruction indices) with a plain compare-and-store must reproduce
/// eval_full slot for slot, evaluate each instruction at most once per
/// settle, and hand the bitmap back all zero.
TEST(Propagate, MatchesEvalFullAndClearsItsBitmap) {
  for (std::uint64_t seed = 1; seed <= fuzz_seed_count(); ++seed) {
    Rng rng(seed);
    const RandomDesign d = random_design(rng);
    const auto compiled = d.nl.compiled();
    const std::vector<std::uint32_t> sources = source_slots(*compiled);
    std::vector<LaneWord> oracle(compiled->slot_count());
    std::vector<LaneWord> settled(compiled->slot_count());
    for (const std::uint32_t s : sources) {
      oracle[s] = settled[s] = rng.next_u64();
    }
    compiled->eval_full(oracle.data());
    compiled->eval_full(settled.data());

    std::vector<std::uint64_t> pending((compiled->instrs().size() + 63) / 64, 0);
    std::vector<std::uint32_t> runs(compiled->instrs().size(), 0);
    for (int settle = 0; settle < 40; ++settle) {
      std::vector<std::uint32_t> dirty;
      const std::size_t changes = 1 + rng.next_below(sources.size());
      for (std::size_t c = 0; c < changes; ++c) {
        const std::uint32_t s = sources[rng.next_below(sources.size())];
        settled[s] = oracle[s] = rng.next_u64();
        dirty.push_back(s);  // duplicates and unchanged slots are harmless
      }
      compiled->eval_full(oracle.data());
      std::fill(runs.begin(), runs.end(), 0);
      compiled->propagate(dirty, pending, [&](const CompiledInstr& in) {
        ++runs[&in - compiled->instrs().data()];
        const LaneWord value = CompiledNetlist::eval_instr(in, settled.data());
        if (settled[in.out] == value) {
          return false;
        }
        settled[in.out] = value;
        return true;
      });
      for (std::uint32_t s = 0; s < compiled->slot_count(); ++s) {
        ASSERT_EQ(settled[s], oracle[s]) << "seed " << seed << " settle " << settle
                                         << " slot " << s;
      }
      EXPECT_LE(*std::max_element(runs.begin(), runs.end()), 1u);
      EXPECT_EQ(std::count(pending.begin(), pending.end(), 0u),
                static_cast<std::ptrdiff_t>(pending.size()));
    }
  }
}

/// An event-scheduled scalar Simulator must match a sweep-scheduled one
/// net-for-net and cycle-for-cycle through RETAIN traffic, power cycles
/// with randomized garbage, and retention upsets; likewise the packed
/// facade with independent per-lane stimulus.
TEST(EventSchedule, EnginesMatchSweepThroughPowerCycles) {
  Rng build_rng(4321);
  for (int trial = 0; trial < 3; ++trial) {
    RandomDesign d = random_design(build_rng);
    Simulator sweep(d.nl);
    Simulator event(d.nl);
    Simulator probe(d.nl);
    sweep.set_schedule(Schedule::Sweep);
    event.set_schedule(Schedule::Event);
    probe.set_schedule(Schedule::Auto);
    PackedSim packed_sweep(d.nl);
    PackedSim packed_event(d.nl);
    packed_sweep.set_schedule(Schedule::Sweep);
    packed_event.set_schedule(Schedule::Event);

    Rng stim(9000 + trial);
    for (Simulator* sim : {&sweep, &event, &probe}) {
      sim->set_input("se", false);
      sim->set_input("retain", false);
    }
    for (PackedSim* sim : {&packed_sweep, &packed_event}) {
      sim->set_input_all("se", false);
      sim->set_input_all("retain", false);
    }

    auto compare_all = [&](int cycle) {
      for (NetId n = 0; n < d.nl.net_count(); ++n) {
        ASSERT_EQ(sweep.net_value(n), event.net_value(n))
            << "trial " << trial << " cycle " << cycle << " net " << n;
        ASSERT_EQ(sweep.net_value(n), probe.net_value(n))
            << "auto diverged, trial " << trial << " cycle " << cycle
            << " net " << n;
        ASSERT_EQ(packed_sweep.net_lanes(n), packed_event.net_lanes(n))
            << "packed, trial " << trial << " cycle " << cycle << " net " << n;
      }
      ASSERT_EQ(sweep.flop_states(), event.flop_states());
    };

    for (int cycle = 0; cycle < 60; ++cycle) {
      for (const NetId in : d.data_inputs) {
        const bool v = stim.next_bool(0.5);
        const LaneWord lanes = stim.next_u64();
        sweep.set_input(in, v);
        event.set_input(in, v);
        probe.set_input(in, v);
        packed_sweep.set_input(in, lanes);
        packed_event.set_input(in, lanes);
      }
      sweep.step();
      event.step();
      probe.step();
      packed_sweep.step();
      packed_event.step();
      compare_all(cycle);

      if (cycle % 15 == 14 && !d.rdffs.empty()) {
        for (Simulator* sim : {&sweep, &event, &probe}) {
          sim->set_input("retain", true);
          sim->step();
        }
        for (PackedSim* sim : {&packed_sweep, &packed_event}) {
          sim->set_input_all("retain", true);
          sim->step();
        }
        // Identical garbage streams per engine so sleep state agrees.
        Rng g1(7000 + cycle), g2(7000 + cycle), g3(7000 + cycle);
        sweep.power_off(1, &g1);
        event.power_off(1, &g2);
        probe.power_off(1, &g3);
        packed_sweep.power_off(1);
        packed_event.power_off(1);
        compare_all(cycle);  // clamped while off

        const CellId victim = d.rdffs[stim.next_below(d.rdffs.size())];
        sweep.flip_retention(victim);
        event.flip_retention(victim);
        probe.flip_retention(victim);
        packed_sweep.flip_retention(victim, kAllLanes);
        packed_event.flip_retention(victim, kAllLanes);
        for (Simulator* sim : {&sweep, &event, &probe}) {
          sim->power_on(1);
          sim->set_input("retain", false);
          sim->step();
        }
        for (PackedSim* sim : {&packed_sweep, &packed_event}) {
          sim->power_on(1);
          sim->set_input_all("retain", false);
          sim->step();
        }
        compare_all(cycle);
      }
    }
    // The event engines really ran the worklist (not silent sweeps).
    const ScheduleTelemetry scalar_t = event.take_schedule_telemetry();
    EXPECT_GT(scalar_t.event_sweeps, 0u);
    EXPECT_LT(scalar_t.avg_dirty_fraction(), 1.0);
    const ScheduleTelemetry sweep_t = sweep.take_schedule_telemetry();
    EXPECT_EQ(sweep_t.event_sweeps, 0u);
    EXPECT_DOUBLE_EQ(sweep_t.avg_dirty_fraction(), 1.0);
  }
}

/// The vendored ISCAS-style benches, scalar and packed: sparse stimulus
/// (event-friendly), then dense every-input-flips stimulus that pushes the
/// worklist over its budget on the larger circuits — values must agree with
/// the sweep engine in both regimes.
TEST(EventSchedule, IscasBenchesMatchSweep) {
  const std::string dir = std::string(RETSCAN_CIRCUITS_DIR) + "/";
  for (const char* file : {"c17.v", "s27.v", "mul880.v"}) {
    SCOPED_TRACE(file);
    const Netlist nl = Netlist::from_verilog(dir + file);
    Simulator sweep(nl);
    Simulator event(nl);
    sweep.set_schedule(Schedule::Sweep);
    event.set_schedule(Schedule::Event);
    PackedSim packed_sweep(nl);
    PackedSim packed_event(nl);
    packed_sweep.set_schedule(Schedule::Sweep);
    packed_event.set_schedule(Schedule::Event);

    Rng rng(31);
    for (int cycle = 0; cycle < 40; ++cycle) {
      // First half: low activity (~1 input toggles). Second half: every
      // input redrawn per cycle — on mul880 that floods the worklist.
      const bool dense = cycle >= 20;
      for (const NetId in : nl.inputs()) {
        if (dense || rng.next_bool(0.15)) {
          const bool v = rng.next_bool(0.5);
          sweep.set_input(in, v);
          event.set_input(in, v);
          const LaneWord lanes = rng.next_u64();
          packed_sweep.set_input(in, lanes);
          packed_event.set_input(in, lanes);
        }
      }
      sweep.step();
      event.step();
      packed_sweep.step();
      packed_event.step();
      for (NetId n = 0; n < nl.net_count(); ++n) {
        ASSERT_EQ(sweep.net_value(n), event.net_value(n))
            << "cycle " << cycle << " net " << n;
        ASSERT_EQ(packed_sweep.net_lanes(n), packed_event.net_lanes(n))
            << "packed, cycle " << cycle << " net " << n;
      }
    }
    EXPECT_GT(event.take_schedule_telemetry().settles(), 0u);
  }
}

/// Low-activity retention campaign (the paper's sleep/wake workload, mostly
/// idle): Sweep and Event must report identical statistics on both the
/// scalar and packed testbench paths, and the event run must actually have
/// event-scheduled its settles.
TEST(EventSchedule, RetentionCampaignStatsInvariant) {
  ValidationConfig config;
  config.fifo = FifoSpec{32, 2};
  config.chain_count = 8;
  config.mode = InjectionMode::SingleRandom;
  config.seed = 61;

  config.schedule = Schedule::Sweep;
  StructuralTestbench sweep_scalar(config);
  const ValidationStats scalar_want = sweep_scalar.run(6);
  StructuralTestbench sweep_packed(config);
  const ValidationStats packed_want = sweep_packed.run_packed(128);

  config.schedule = Schedule::Event;
  StructuralTestbench event_scalar(config);
  EXPECT_EQ(event_scalar.run(6), scalar_want);
  StructuralTestbench event_packed(config);
  EXPECT_EQ(event_packed.run_packed(128), packed_want);

  const ScheduleTelemetry telemetry = event_packed.take_telemetry();
  EXPECT_GT(telemetry.event_sweeps, 0u);
  EXPECT_LT(telemetry.avg_dirty_fraction(), 1.0);
  const ScheduleTelemetry sweep_telemetry = sweep_packed.take_telemetry();
  EXPECT_EQ(sweep_telemetry.event_sweeps, 0u);
  EXPECT_GT(sweep_telemetry.full_sweeps, 0u);
}

/// Telemetry is part of serve's summary digest, so the settle's counters
/// are pinned, not just its values (recorded on the level-bucket settle
/// bucket_settle models): 512 sequences in two shards on the 32x2/8 slice,
/// under Auto (what campaigns run) and explicit Event, at one thread and
/// three.
TEST(SchedulePinned, StructuralCampaignTelemetry) {
  struct Pin {
    Schedule schedule;
    std::uint64_t seed;
    InjectionMode mode;
    ValidationStats stats;
    ScheduleTelemetry telemetry;
  };
  constexpr InjectionMode kSingle = InjectionMode::SingleRandom;
  constexpr InjectionMode kBurst = InjectionMode::MultipleBurst;
  constexpr InjectionMode kRush = InjectionMode::RushModel;
  const Pin pins[] = {
      {Schedule::Auto, 1, kSingle, {512, 512, 512, 512, 512, 0, 0, 0},
       {105, 1427, 23, 10541, 1083093, 1162788}},
      {Schedule::Auto, 1, kBurst, {512, 1024, 512, 512, 472, 40, 18, 0},
       {105, 1427, 23, 10541, 1083093, 1162788}},
      {Schedule::Auto, 1, kRush, {512, 418, 302, 302, 293, 9, 9, 0},
       {105, 1442, 23, 10541, 1094478, 1174173}},
      {Schedule::Auto, 7, kSingle, {512, 512, 512, 512, 512, 0, 0, 0},
       {107, 1490, 21, 10540, 1130910, 1212123}},
      {Schedule::Auto, 7, kBurst, {512, 1024, 512, 512, 473, 39, 20, 0},
       {107, 1490, 21, 10540, 1130910, 1212123}},
      {Schedule::Auto, 7, kRush, {512, 424, 297, 297, 287, 10, 8, 0},
       {107, 1550, 21, 10540, 1176450, 1257663}},
      {Schedule::Event, 1, kSingle, {512, 512, 512, 512, 512, 0, 0, 0},
       {1240, 292, 274, 89140, 221628, 1162788}},
      {Schedule::Event, 1, kBurst, {512, 1024, 512, 512, 472, 40, 18, 0},
       {1238, 294, 276, 94967, 223146, 1162788}},
      {Schedule::Event, 1, kRush, {512, 418, 302, 302, 293, 9, 9, 0},
       {1251, 296, 278, 90707, 224664, 1174173}},
      {Schedule::Event, 7, kSingle, {512, 512, 512, 512, 512, 0, 0, 0},
       {1300, 297, 279, 92664, 225423, 1212123}},
      {Schedule::Event, 7, kBurst, {512, 1024, 512, 512, 473, 39, 20, 0},
       {1300, 297, 279, 98114, 225423, 1212123}},
      {Schedule::Event, 7, kRush, {512, 424, 297, 297, 287, 10, 8, 0},
       {1359, 298, 280, 96326, 226182, 1257663}},
  };
  for (const unsigned threads : {1u, 3u}) {
    parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = threads});
    for (const Pin& pin : pins) {
      ValidationConfig config;
      config.fifo = FifoSpec{32, 2};
      config.chain_count = 8;
      config.seed = pin.seed;
      config.schedule = pin.schedule;
      config.mode = pin.mode;
      config.burst_size = 2;
      config.burst_spread = 1;
      config.rush.resistance_ohm = 0.05;  // ringing wake-up: real upsets
      config.corruption.vulnerability = 0.02;
      SCOPED_TRACE(std::string(to_string(pin.schedule)) + " seed " +
                   std::to_string(pin.seed) + " mode " +
                   std::to_string(static_cast<int>(pin.mode)) + ", " +
                   std::to_string(threads) + " threads");
      const parallel::CampaignReport report = runner.run_structural_packed(config, 512, 256);
      EXPECT_EQ(report.stats, pin.stats);
      EXPECT_EQ(report.telemetry, pin.telemetry);
    }
  }
}

/// bench_validation's low-activity retention workload (the event_speedup
/// gate's), pinned: its output digest under every schedule, and the Event
/// engine's telemetry — including the fallbacks of the dense settles.
TEST(SchedulePinned, LowActivityWorkloadTelemetry) {
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.chain_count = 8;
  protection.test_width = 4;
  const ProtectedDesign design(make_fifo(FifoSpec{32, 2}), protection);
  const Netlist& nl = design.netlist();
  const auto run = [&](Schedule schedule) {
    PackedSim sim(nl);
    sim.set_schedule(schedule);
    sim.reset();
    for (const char* name : {"se", "retain", "mon_en", "mon_decode", "mon_clear",
                             "sig_capture", "sig_compare", "test_mode", "rd_en"}) {
      sim.set_input_all(name, false);
    }
    std::uint64_t digest = 0;
    Rng stim(77);
    for (int episode = 0; episode < 12; ++episode) {
      for (int active = 0; active < 4; ++active) {
        sim.set_input("wr_en", stim.next_u64());
        sim.set_input("din0", stim.next_u64());
        sim.set_input("din1", stim.next_u64());
        sim.step();
      }
      sim.set_input_all("wr_en", false);
      sim.step_n(256);
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
    EXPECT_EQ(digest, 0xa902bbc103a8baf8ull) << to_string(schedule);
    return sim.take_schedule_telemetry();
  };
  EXPECT_EQ(run(Schedule::Event), (ScheduleTelemetry{6231, 83, 57, 15171, 62997, 4792326}));
  EXPECT_EQ(run(Schedule::Auto), (ScheduleTelemetry{6231, 83, 57, 15171, 62997, 4792326}));
  EXPECT_EQ(run(Schedule::Sweep), (ScheduleTelemetry{0, 6314, 0, 0, 4792326, 4792326}));
}

}  // namespace
}  // namespace retscan
