// Compiled-core throughput bench: the raw gate-evaluation engine behind
// every simulator facade and fault-sim frame.
//
//  * full-sweep kernel — million gate-evals/sec (MEPS) of the compiled flat
//    instruction stream vs the retained per-Cell reference interpreter, on
//    the protected FIFO netlist. The compiled side runs the lane-block
//    datapath (kLaneBlockBits lanes per sweep, AVX2 when compiled in); a
//    single-word sweep is also timed so laneblock_speedup isolates the
//    block-vs-word win on the same host and binary;
//  * incremental fault simulation — warm per-fault detect_block
//    (detect_site with its memo cleared: the fault's fanout-free-region
//    chain, then a change-driven propagate of its stem's flip) over
//    lane-block batches vs full-circuit interpreted passes on the same fault
//    dictionary, with bit-identical detect masks required; the two alternate
//    in pairs and cone_speedup is the median pair ratio. The ungated
//    cold_fault_evals_per_sec times what run_atpg's random phase pays: a
//    fresh frame and one serial fault_simulate per pass.
//
// The ratios (compile_speedup, laneblock_speedup, cone_speedup) are
// same-host comparisons and land in BENCH_engine.json, where
// ci/check_bench_json.py gates them against bench/baselines/BENCH_engine.json.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "retscan/test.hpp"
#include "bench_util.hpp"
#include "retscan/netlist.hpp"
#include "retscan/design.hpp"
#include "retscan/sim.hpp"

using namespace retscan;

int main() {
  bench::header("Compiled simulation core vs reference interpreter");
  bench::JsonReport json("engine");
  bool ok = true;
  std::cout << "lane width: " << kLaneWords << " words (" << kLaneBlockBits
            << " lanes/block), AVX2 kernels "
            << (build_info().avx2 ? "on" : "off") << "\n";

  ProtectionConfig config;
  config.kind = CodeKind::HammingPlusCrc;
  config.chain_count = 8;
  config.test_width = 4;
  const ProtectedDesign design(make_fifo(FifoSpec{32, 4}), config);
  const Netlist& nl = design.netlist();
  const std::shared_ptr<const CompiledNetlist> compiled = nl.compiled();
  const std::size_t gates = compiled->instrs().size();
  std::cout << "netlist: " << nl.cell_count() << " cells, " << nl.net_count()
            << " nets, " << gates << " compiled gates\n";

  // --- full-sweep throughput ----------------------------------------------
  // Randomize every source slot, settle, repeat. The block sweep evaluates
  // gates x kLaneBlockBits lanes per pass with independent stimulus in every
  // word of every block; the word sweep and the interpreter run the stimulus
  // of word 0. All sides feed a checksum so the loops cannot be elided, and
  // the final sweep's results must agree net-for-net across all three paths.
  constexpr int kSweeps = 400;
  std::vector<LaneBlock> slot_blocks(compiled->slot_count(), LaneBlock{});
  std::vector<LaneWord> slot_values(compiled->slot_count(), 0);
  std::vector<LaneWord> net_values(nl.net_count(), 0);
  const std::size_t source_count = compiled->slot_count() - gates;

  Rng stim_rng(1);
  std::vector<std::vector<LaneBlock>> stimulus(
      kSweeps, std::vector<LaneBlock>(source_count));
  for (auto& sweep : stimulus) {
    for (LaneBlock& block : sweep) {
      for (std::size_t w = 0; w < kLaneWords; ++w) {
        block.w[w] = stim_rng.next_u64();
      }
    }
  }

  bench::Stopwatch timer;
  LaneWord block_sum = 0;
  for (int s = 0; s < kSweeps; ++s) {
    // Source slots are the first source_count slots by construction.
    for (std::size_t i = 0; i < source_count; ++i) {
      slot_blocks[i] = stimulus[s][i];
    }
    compiled->eval_full(slot_blocks.data());
    block_sum ^= slot_blocks[compiled->slot_count() - 1].w[0];
  }
  const double block_time = timer.seconds();

  timer.restart();
  LaneWord compiled_sum = 0;
  for (int s = 0; s < kSweeps; ++s) {
    for (std::size_t i = 0; i < source_count; ++i) {
      slot_values[i] = stimulus[s][i].w[0];
    }
    compiled->eval_full(slot_values.data());
    compiled_sum ^= slot_values[compiled->slot_count() - 1];
  }
  const double word_time = timer.seconds();

  timer.restart();
  LaneWord interp_sum = 0;
  for (int s = 0; s < kSweeps; ++s) {
    for (std::size_t i = 0; i < source_count; ++i) {
      net_values[compiled->net_of_slot(static_cast<std::uint32_t>(i))] =
          stimulus[s][i].w[0];
    }
    CompiledNetlist::reference_eval(nl, net_values);
    interp_sum ^= net_values[compiled->net_of_slot(
        static_cast<std::uint32_t>(compiled->slot_count() - 1))];
  }
  const double interp_time = timer.seconds();

  // Equivalence of the final sweep, every net: word 0 of the block sweep,
  // the word sweep, and the interpreter must agree bit-for-bit.
  std::size_t sweep_mismatches = 0;
  for (NetId net = 0; net < nl.net_count(); ++net) {
    const std::uint32_t slot = compiled->slot(net);
    if (slot_values[slot] != net_values[net] ||
        slot_blocks[slot].w[0] != net_values[net]) {
      ++sweep_mismatches;
    }
  }
  ok = ok && sweep_mismatches == 0 && compiled_sum == interp_sum &&
       block_sum == interp_sum;

  const double word_lane_evals =
      static_cast<double>(gates) * kSweeps * static_cast<double>(kLaneCount);
  const double block_lane_evals =
      static_cast<double>(gates) * kSweeps * static_cast<double>(kLaneBlockBits);
  const double compiled_meps = block_lane_evals / block_time / 1e6;
  const double word_meps = word_lane_evals / word_time / 1e6;
  const double interp_meps = word_lane_evals / interp_time / 1e6;
  const double compile_speedup = compiled_meps / interp_meps;
  const double laneblock_speedup = compiled_meps / word_meps;
  std::cout << "block:       " << compiled_meps << " M gate-evals/sec ("
            << kLaneBlockBits << " lanes)\n"
            << "word:        " << word_meps << " M gate-evals/sec ("
            << kLaneCount << " lanes)\n"
            << "interpreted: " << interp_meps << " M gate-evals/sec\n"
            << "compile speedup:   " << compile_speedup << "x ("
            << sweep_mismatches << " mismatching nets)\n"
            << "laneblock speedup: " << laneblock_speedup << "x\n";
  json.set("gates", static_cast<double>(gates));
  json.set("compiled_meps", compiled_meps);
  json.set("word_meps", word_meps);
  json.set("interp_meps", interp_meps);
  json.set("compile_speedup", compile_speedup);
  json.set("laneblock_speedup", laneblock_speedup);

  // --- FFR-incremental vs full-circuit fault simulation --------------------
  bench::header("Fanout-free-region incremental vs full-circuit fault simulation");
  const auto make_frame = [&] {
    CombinationalFrame made(nl);
    for (const char* name : {"se", "retain", "mon_en", "mon_decode", "mon_clear",
                             "sig_capture", "sig_compare", "test_mode"}) {
      made.constrain(name, false);
    }
    return made;
  };
  const CombinationalFrame frame = make_frame();
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  Rng pattern_rng(7);
  std::vector<BitVec> patterns;
  for (int i = 0; i < 256; ++i) {
    patterns.push_back(frame.random_pattern(pattern_rng));
  }

  // Preload batches so both timed loops measure pure per-fault evaluation.
  // The FFR path consumes kLaneBlockBits patterns per loaded block; the
  // interpreted baseline keeps the historical 64-pattern batches so
  // cone_fault_evals_per_sec stays in faults x (patterns/64) units across PRs.
  std::vector<std::vector<BitVec>> batches;
  std::vector<std::vector<std::uint64_t>> batch_good;
  for (std::size_t base = 0; base < patterns.size(); base += kLaneCount) {
    const std::size_t count =
        std::min<std::size_t>(kLaneCount, patterns.size() - base);
    batches.emplace_back(patterns.begin() + base, patterns.begin() + base + count);
    batch_good.push_back(frame.good_response_words(batches.back()));
  }
  std::vector<CombinationalFrame::LoadedPatternBatch> loaded;
  for (std::size_t base = 0; base < patterns.size(); base += kLaneBlockBits) {
    const std::size_t count =
        std::min<std::size_t>(kLaneBlockBits, patterns.size() - base);
    const std::vector<BitVec> chunk(patterns.begin() + base,
                                    patterns.begin() + base + count);
    loaded.push_back(frame.load_batch(chunk));
  }

  // cone_speedup, the gated ratio, is the median over alternating pairs of
  // one warm pass (every fault's detect_block, which clears the memo, so
  // every fault observes its stem afresh, over every lane block,
  // kConeRepeats times) and one interpreted pass (every fault over one 64-pattern
  // batch, the next batch each pair, about 0.4 s); each side is timed per
  // fault-eval, so the pair's ratio is the speedup. A lone back-to-back
  // measurement read past the gate from host noise alone. Nine pairs time
  // each of the four batches at least twice, so every interpreted mask is
  // filled for the comparison below.
  constexpr int kPairs = 9;
  constexpr int kConeRepeats = 5;
  const double fault_count = static_cast<double>(faults.size());
  CombinationalFrame::Workspace workspace;
  std::vector<LaneBlock> cone_blocks(faults.size() * loaded.size(), LaneBlock{});
  std::vector<std::uint64_t> full_masks(faults.size() * batches.size(), 0);
  std::vector<double> cone_rates;
  std::vector<double> full_rates;
  std::size_t next_batch = 0;
  const auto cone_pass = [&] {
    bench::Stopwatch pass;
    for (int r = 0; r < kConeRepeats; ++r) {
      for (std::size_t b = 0; b < loaded.size(); ++b) {
        for (std::size_t fi = 0; fi < faults.size(); ++fi) {
          cone_blocks[b * faults.size() + fi] =
              frame.detect_block(faults[fi], loaded[b], workspace);
        }
      }
    }
    const double seconds_per_eval =
        pass.seconds() / (kConeRepeats * fault_count * static_cast<double>(batches.size()));
    cone_rates.push_back(1.0 / seconds_per_eval);
    return seconds_per_eval;
  };
  const auto full_pass = [&] {
    const std::size_t b = next_batch++ % batches.size();
    bench::Stopwatch pass;
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      full_masks[b * faults.size() + fi] =
          frame.detect_mask_full(faults[fi], batches[b], batch_good[b]);
    }
    const double seconds_per_eval = pass.seconds() / fault_count;
    full_rates.push_back(1.0 / seconds_per_eval);
    return seconds_per_eval;
  };
  const std::vector<double> ratios = bench::paired_ratios(kPairs, full_pass, cone_pass);
  std::sort(cone_rates.begin(), cone_rates.end());
  std::sort(full_rates.begin(), full_rates.end());

  // Word w of warm block b covers the same 64 patterns as interpreted batch
  // b * kLaneWords + w; every lane must agree.
  std::size_t mask_mismatches = 0;
  for (std::size_t b = 0; b < loaded.size(); ++b) {
    for (std::size_t w = 0; w < kLaneWords; ++w) {
      const std::size_t wb = b * kLaneWords + w;
      if (wb >= batches.size()) {
        break;
      }
      for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        if (cone_blocks[b * faults.size() + fi].w[w] !=
            full_masks[wb * faults.size() + fi]) {
          ++mask_mismatches;
        }
      }
    }
  }
  ok = ok && mask_mismatches == 0;

  // Cold: a fresh frame per pass, then serial fault_simulate over the same
  // patterns, in the same fault-eval units. Its detections must be the
  // faults whose warm masks have a lane set.
  constexpr int kColdPasses = 9;
  std::vector<double> cold_rates;
  std::size_t cold_detected = 0;
  for (int pass = 0; pass < kColdPasses; ++pass) {
    bench::Stopwatch timer;
    const CombinationalFrame cold = make_frame();
    cold_detected = fault_simulate(cold, faults, patterns).detected;
    cold_rates.push_back(fault_count * static_cast<double>(batches.size()) / timer.seconds());
  }
  std::sort(cold_rates.begin(), cold_rates.end());
  std::size_t warm_detected = 0;
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    bool any = false;
    for (std::size_t b = 0; b < loaded.size(); ++b) {
      any = any || block_any(cone_blocks[b * faults.size() + fi]);
    }
    warm_detected += any ? 1 : 0;
  }
  ok = ok && cold_detected == warm_detected;

  const double cone_rate = cone_rates[cone_rates.size() / 2];
  const double full_rate = full_rates[full_rates.size() / 2];
  const double cone_speedup = ratios[ratios.size() / 2];
  const double cold_rate = cold_rates[cold_rates.size() / 2];
  std::cout << "warm:    " << cone_rate << " fault-evals/sec over "
            << faults.size() << " faults x " << batches.size()
            << " 64-pattern batches (" << loaded.size() << " lane blocks)\n"
            << "cold:    " << cold_rate << " fault-evals/sec, median of " << kColdPasses
            << " fresh-frame fault_simulate passes (" << cold_detected << " detected, "
            << (cold_detected == warm_detected ? "as warm" : "DIVERGED from warm") << ")\n"
            << "full:    " << full_rate << " fault-evals/sec\n"
            << "speedup: " << cone_speedup << "x, median of " << ratios.size()
            << " pairs (min " << ratios.front() << ", max " << ratios.back() << "; masks "
            << (mask_mismatches == 0 ? "identical" : "DIVERGED") << ")\n";
  json.set("collapsed_faults", static_cast<double>(faults.size()));
  json.set("cone_fault_evals_per_sec", cone_rate);
  json.set("cold_fault_evals_per_sec", cold_rate);
  json.set("full_fault_evals_per_sec", full_rate);
  json.set("cone_speedup", cone_speedup);

  json.set("pass", ok ? 1.0 : 0.0);
  json.write();
  std::cout << (ok ? "\n[engine] PASS\n" : "\n[engine] FAIL\n");
  return ok ? 0 : 1;
}
