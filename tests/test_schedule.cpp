// Equivalence tests of the event-driven settle scheduler (dirty-net
// worklist, sim/schedule.hpp + CompiledNetlist::eval_event) against the
// full-sweep reference: the kernel-level worklist must match eval_full at
// word and block lane widths (including budget fallbacks), and so must
// PODEM's budget-free CompiledNetlist::propagate; event-scheduled
// engines must match sweep-scheduled engines net-for-net through power
// cycles and on the vendored ISCAS benches, and campaign statistics must be
// schedule-invariant.

#include "sim/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "circuits/fifo.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/packed_sim.hpp"
#include "sim/simulator.hpp"
#include "testbench/harness.hpp"
#include "util/rng.hpp"

#ifndef RETSCAN_CIRCUITS_DIR
#define RETSCAN_CIRCUITS_DIR "bench/circuits"
#endif

namespace retscan {
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

/// eval_event with a plain compare-and-store must reproduce eval_full slot
/// for slot across randomized dirty sets, at the word lane width, including
/// budget-crossing settles finished by a caller-side full sweep.
TEST(EvalEvent, MatchesEvalFullAtWordWidth) {
  Rng rng(101);
  for (int trial = 0; trial < 3; ++trial) {
    const RandomDesign d = random_design(rng);
    const auto compiled = d.nl.compiled();
    const std::vector<std::uint32_t> sources = source_slots(*compiled);
    ASSERT_FALSE(sources.empty());

    std::vector<LaneWord> oracle(compiled->slot_count());
    std::vector<LaneWord> event(compiled->slot_count());
    for (const std::uint32_t s : sources) {
      oracle[s] = event[s] = rng.next_u64();
    }
    compiled->eval_full(oracle.data());
    compiled->eval_full(event.data());

    CompiledNetlist::EventWorkspace ws;
    // Alternate generous and starved budgets so both the clean path and the
    // fallback path run against the same workspace.
    for (int settle = 0; settle < 40; ++settle) {
      std::vector<std::uint32_t> dirty;
      const std::size_t changes = 1 + rng.next_below(sources.size());
      for (std::size_t c = 0; c < changes; ++c) {
        const std::uint32_t s = sources[rng.next_below(sources.size())];
        const LaneWord value = rng.next_u64();
        if (event[s] != value) {
          event[s] = value;
          oracle[s] = value;
          dirty.push_back(s);
        }
      }
      compiled->eval_full(oracle.data());
      const std::size_t budget =
          settle % 3 == 2 ? 4 : compiled->instrs().size();
      const auto result = compiled->eval_event(
          dirty, ws, budget, [&](const CompiledInstr& in) {
            const LaneWord value = CompiledNetlist::eval_instr(in, event.data());
            if (event[in.out] == value) {
              return false;
            }
            event[in.out] = value;
            return true;
          });
      if (result.fell_back) {
        // Partial worklist work is final; the full sweep just completes it.
        compiled->eval_full(event.data());
      }
      for (std::uint32_t s = 0; s < compiled->slot_count(); ++s) {
        ASSERT_EQ(event[s], oracle[s])
            << "trial " << trial << " settle " << settle << " slot " << s
            << (result.fell_back ? " (fell back)" : "");
      }
    }
  }
}

/// Same agreement at the block lane width — eval_event is width-agnostic
/// (the store lambda owns the value array), so one worklist drives both the
/// 64-lane engines and the 256-lane fault datapath.
TEST(EvalEvent, MatchesEvalFullAtBlockWidth) {
  Rng rng(202);
  const RandomDesign d = random_design(rng);
  const auto compiled = d.nl.compiled();
  const std::vector<std::uint32_t> sources = source_slots(*compiled);

  std::vector<LaneBlock> oracle(compiled->slot_count(), LaneBlock{});
  std::vector<LaneBlock> event(compiled->slot_count(), LaneBlock{});
  auto random_block = [&rng]() {
    LaneBlock block;
    for (std::size_t w = 0; w < kLaneWords; ++w) {
      block.w[w] = rng.next_u64();
    }
    return block;
  };
  for (const std::uint32_t s : sources) {
    oracle[s] = event[s] = random_block();
  }
  compiled->eval_full(oracle.data());
  compiled->eval_full(event.data());

  CompiledNetlist::EventWorkspace ws;
  for (int settle = 0; settle < 25; ++settle) {
    std::vector<std::uint32_t> dirty;
    for (std::size_t c = 0; c < 3; ++c) {
      const std::uint32_t s = sources[rng.next_below(sources.size())];
      const LaneBlock value = random_block();
      event[s] = value;
      oracle[s] = value;
      dirty.push_back(s);
    }
    compiled->eval_full(oracle.data());
    const auto result = compiled->eval_event(
        dirty, ws, compiled->instrs().size(), [&](const CompiledInstr& in) {
          const LaneBlock value = CompiledNetlist::eval_instr(in, event.data());
          bool changed = false;
          for (std::size_t w = 0; w < kLaneWords; ++w) {
            changed |= event[in.out].w[w] != value.w[w];
          }
          if (changed) {
            event[in.out] = value;
          }
          return changed;
        });
    EXPECT_FALSE(result.fell_back);
    for (std::uint32_t s = 0; s < compiled->slot_count(); ++s) {
      for (std::size_t w = 0; w < kLaneWords; ++w) {
        ASSERT_EQ(event[s].w[w], oracle[s].w[w])
            << "settle " << settle << " slot " << s << " word " << w;
      }
    }
  }
}

/// propagate (PODEM's budget-free settle: one ascending scan of a bitmap
/// over instruction indices) with a plain compare-and-store must reproduce
/// eval_full slot for slot, evaluate each instruction at most once per
/// settle, and hand the bitmap back all zero.
TEST(Propagate, MatchesEvalFullAndClearsItsBitmap) {
  Rng rng(303);
  for (int trial = 0; trial < 3; ++trial) {
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
        ASSERT_EQ(settled[s], oracle[s]) << "trial " << trial << " settle " << settle
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

}  // namespace
}  // namespace retscan
