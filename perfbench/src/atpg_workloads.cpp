// podem-atpg and coverage-suite: the two workloads that drive the atpg layer
// from opposite ends.
//
// podem-atpg runs full two-phase ATPG where PODEM does most of the work
// (epfl_max, bar5315, vot7552 and two protected FIFO slices delivered through
// the Section III test-mode scan path). coverage-suite imports all 18 vendored
// circuits and runs random ATPG only, then stuck-at, transition-delay,
// bridging and (on the '89-class circuits) sequential fault simulation: a
// PODEM change must leave it flat, while frontend, random-ATPG and fault-sim
// changes show.
//
// Both build every artifact through the layer calls a Session makes lazily,
// one span per call, so setup splits into parse, lint, synthesis, compile,
// frame and fault list.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "atpg/fault_models.hpp"
#include "harness.hpp"
#include "retscan/netlist.hpp"
#include "retscan/session.hpp"
#include "retscan/test.hpp"
#include "util/fnv.hpp"

namespace perfbench {
namespace {

using namespace retscan;

constexpr std::size_t kFaultShard = 128;      // the campaign router's default
constexpr std::size_t kSequentialShard = 64;  // ditto, sequential coverage
constexpr std::size_t kPatternsPerShard = 256;

/// One circuit of a workload. `file` empty means a generated FIFO slice.
struct Circuit {
  std::string name;
  std::string file;
  FifoSpec fifo{};
  std::size_t chains = 0;  ///< 0 = bare import (no protection architecture)
  CodeKind kind = CodeKind::CrcDetect;
  unsigned hamming_r = 3;
  std::size_t test_width = 4;
  bool sequential = false;  ///< also run scan-free sequential coverage
  /// Target every k-th collapsed fault (a fixed subset, so a pass stays
  /// short while each PODEM call costs what it does on the full list).
  std::size_t fault_stride = 1;
  AtpgOptions atpg{};
};

/// A circuit's session plus, for '89-class imports, the raw import the
/// scan-free sequential model runs on.
struct Prepared {
  std::unique_ptr<Session> session;
  std::optional<Netlist> raw;
  std::vector<Fault> subset;  ///< strided targets; empty = the whole list

  const std::vector<Fault>& faults() const {
    return subset.empty() ? session->faults() : subset;
  }
};

bool lint_clean(const Netlist& netlist) {
  for (const LintIssue& issue : lint_netlist(netlist)) {
    // Clock ports of the sequential imports are intentionally unread.
    if (issue.kind != LintKind::FloatingInput) {
      return false;
    }
  }
  return true;
}

/// Build every artifact the campaigns need, one span per layer call; the
/// seconds are added to `setup`.
Prepared prepare(Context& ctx, const Circuit& circuit, double& setup) {
  Tracer& tracer = *ctx.tracer;
  const SessionOptions options{.threads = ctx.threads};
  ProtectionConfig protection;
  protection.kind = circuit.kind;
  protection.hamming_r = circuit.hamming_r;
  protection.chain_count = circuit.chains;
  protection.test_width = circuit.test_width;

  Prepared out;
  if (circuit.file.empty()) {
    out.session = timed(tracer, "core.synth", setup, [&] {
      auto session = std::make_unique<Session>(circuit.fifo, protection, options);
      session->design();
      return session;
    });
  } else {
    const std::string path = ctx.root + "/bench/circuits/" + circuit.file;
    Netlist netlist =
        timed(tracer, "netlist.parse", setup, [&] { return Netlist::from_verilog(path); });
    const bool clean = timed(tracer, "netlist.lint", setup, [&] { return lint_clean(netlist); });
    ctx.ledger->oracle(circuit.name + ": import does not lint clean", clean);
    if (circuit.sequential) {
      out.raw = netlist;
    }
    out.session = timed(tracer, "core.synth", setup, [&] {
      if (circuit.chains == 0) {
        return std::make_unique<Session>(Session::unprotected(std::move(netlist), options));
      }
      auto session = std::make_unique<Session>(std::move(netlist), protection, options);
      session->design();
      return session;
    });
  }
  Session& session = *out.session;
  timed(tracer, "sim.compile", setup, [&] { return session.netlist().compiled(); });
  timed(tracer, "atpg.frame", setup, [&]() -> auto& { return session.frame(); });
  timed(tracer, "atpg.faults", setup, [&] {
    const std::vector<Fault>& all = session.faults();
    for (std::size_t i = 0; circuit.fault_stride > 1 && i < all.size(); i += circuit.fault_stride) {
      out.subset.push_back(all[i]);
    }
  });
  return out;
}

std::uint64_t digest(const AtpgResult& atpg) {
  Fnv1a h;
  for (const std::size_t value : {atpg.total_faults, atpg.detected_random,
                                  atpg.detected_podem, atpg.untestable, atpg.aborted,
                                  atpg.patterns.size()}) {
    h.add(value);
  }
  for (const BitVec& pattern : atpg.patterns) {
    for (const auto word : pattern.words()) {
      h.add(word);
    }
  }
  return h.hash;
}

std::uint64_t digest(const FaultSimResult& sim) {
  Fnv1a h;
  h.add(sim.total_faults);
  h.add(sim.detected);
  for (const std::size_t index : sim.detected_by) {
    h.add(index);
  }
  return h.hash;
}

std::uint64_t digest(const ScanTestResult& scan) {
  Fnv1a h;
  h.add(scan.patterns_applied);
  h.add(scan.mismatches);
  return h.hash;
}

/// Counters the traced run turns into per-layer metrics.
struct AtpgCounters {
  double random_kept = 0.0, random_drawn = 0.0;
  double detected = 0.0, untestable = 0.0, aborted = 0.0, podem_calls = 0.0;
  double stuck_evals = 0.0, stuck_seconds = 0.0;
  double sim_cpu = 0.0, sim_wall = 0.0;
};

/// What the post-run oracles re-check: a circuit's final stuck-at claims.
struct Claims {
  const Circuit* circuit = nullptr;
  std::vector<BitVec> patterns;
  std::vector<BitVec> random_patterns;
  FaultSimResult stuck;
};

/// A pooled fault-simulation call: span, CPU accounting, result.
template <typename Fn>
FaultSimResult pooled_sim(Tracer& tracer, const char* span, double& op_seconds,
                          AtpgCounters& counters, Fn&& fn) {
  const double cpu_start = cpu_now();
  double seconds = 0.0;
  FaultSimResult result = timed(tracer, span, seconds, fn);
  counters.sim_cpu += cpu_now() - cpu_start;
  counters.sim_wall += seconds;
  op_seconds += seconds;
  return result;
}

/// detect_mask_full, the reference interpreter, re-checks a seeded sample
/// of the claimed detections (at the claimed first pattern) and
/// non-detections (against every pattern).
bool reference_agrees(const CombinationalFrame& frame, const std::vector<Fault>& faults,
                      const Claims& claims, std::uint64_t seed) {
  constexpr std::size_t kDetected = 8;
  constexpr std::size_t kUndetected = 2;
  std::vector<std::size_t> detected, undetected;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    (claims.stuck.detected_by[i] == FaultSimResult::npos ? undetected : detected).push_back(i);
  }
  Rng rng(seed);
  const auto sample = [&rng](const std::vector<std::size_t>& from, std::size_t count) {
    std::vector<std::size_t> picked;
    if (from.empty()) {
      return picked;
    }
    for (std::size_t k = 0; k < count; ++k) {
      picked.push_back(from[rng.next_below(from.size())]);
    }
    return picked;
  };
  for (const std::size_t i : sample(detected, kDetected)) {
    if (claims.stuck.detected_by[i] >= claims.patterns.size()) {
      return false;
    }
    const std::vector<BitVec> one{claims.patterns[claims.stuck.detected_by[i]]};
    if ((frame.detect_mask_full(faults[i], one, frame.good_response_words(one)) & 1u) == 0) {
      return false;
    }
  }
  for (const std::size_t i : sample(undetected, kUndetected)) {
    for (std::size_t base = 0; base < claims.patterns.size(); base += 64) {
      const std::size_t end = std::min(base + 64, claims.patterns.size());
      const std::vector<BitVec> chunk(claims.patterns.begin() + base,
                                      claims.patterns.begin() + end);
      if (frame.detect_mask_full(faults[i], chunk, frame.good_response_words(chunk)) != 0) {
        return false;
      }
    }
  }
  return true;
}

void run_oracles(Context& ctx, const std::vector<Claims>& kept) {
  double ignored = 0.0;
  for (const Claims& claims : kept) {
    Prepared prepared = prepare(ctx, *claims.circuit, ignored);
    Session& session = *prepared.session;
    ctx.ledger->oracle(
        claims.circuit->name + ": reference interpreter disagrees with fault simulation",
        reference_agrees(session.frame(), prepared.faults(), claims,
                         derive_seed(ctx.seed, 0x0AC1E)));
  }
}

void publish(Context& ctx, const AtpgCounters& c, std::size_t passes) {
  const double n = static_cast<double>(passes);
  ctx.layer["atpg.random_yield"] = c.random_drawn > 0 ? c.random_kept / c.random_drawn : 0.0;
  ctx.layer["atpg.detected"] = c.detected / n;
  ctx.layer["atpg.untestable"] = c.untestable / n;
  ctx.layer["atpg.aborted"] = c.aborted / n;
  ctx.layer["atpg.podem_calls"] = c.podem_calls / n;
  ctx.layer["atpg.fault_evals_per_s"] =
      c.stuck_seconds > 0 ? c.stuck_evals / c.stuck_seconds : 0.0;
  ctx.layer["atpg.faultsim_cpu_util"] =
      c.sim_wall > 0 ? c.sim_cpu / (c.sim_wall * ctx.threads) : 0.0;
}

void count_random(AtpgCounters& c, const AtpgResult& random, const AtpgOptions& options) {
  c.random_kept += static_cast<double>(random.patterns.size());
  c.random_drawn += static_cast<double>(options.random_patterns);
}

void count_stuck(AtpgCounters& c, const FaultSimResult& stuck, std::size_t patterns,
                 double seconds) {
  c.stuck_evals += static_cast<double>(stuck.total_faults) *
                   static_cast<double>((patterns + 63) / 64);
  c.stuck_seconds += seconds;
}

/// PODEM over a capped sample of the faults random ATPG left undetected:
/// calls per second, backtracks per call, abort share. Every pattern PODEM
/// claims must detect its target under the reference interpreter.
void probe_podem(Context& ctx, const std::vector<Claims>& kept) {
  constexpr std::size_t kProbeFaults = 48;
  double calls = 0.0, backtracks = 0.0, aborted = 0.0, seconds = 0.0;
  bool targets_detected = true;
  double ignored = 0.0;
  for (const Claims& claims : kept) {
    Prepared prepared = prepare(ctx, *claims.circuit, ignored);
    Session& session = *prepared.session;
    const CombinationalFrame& frame = session.frame();
    const std::vector<Fault>& faults = prepared.faults();
    const FaultSimResult random = fault_simulate(frame, faults, claims.random_patterns);
    Podem podem(frame, claims.circuit->atpg.max_backtracks);
    Rng rng(derive_seed(ctx.seed, 0x90DE));
    std::size_t probed = 0;
    for (std::size_t i = 0; i < faults.size() && probed < kProbeFaults; ++i) {
      if (random.detected_by[i] != FaultSimResult::npos) {
        continue;
      }
      ++probed;
      const PodemResult result =
          timed(*ctx.tracer, "atpg.podem_probe", seconds,
                [&] { return podem.generate(faults[i], rng); });
      calls += 1.0;
      backtracks += static_cast<double>(result.backtracks);
      aborted += result.aborted ? 1.0 : 0.0;
      if (result.success) {
        const std::vector<BitVec> one{result.pattern};
        targets_detected = targets_detected &&
                           (frame.detect_mask_full(faults[i], one,
                                                   frame.good_response_words(one)) & 1u) != 0;
      }
    }
  }
  ctx.layer["atpg.podem_calls_per_s"] = seconds > 0 ? calls / seconds : 0.0;
  ctx.layer["atpg.podem_backtracks_per_call"] = calls > 0 ? backtracks / calls : 0.0;
  ctx.layer["atpg.podem_abort_frac"] = calls > 0 ? aborted / calls : 0.0;
  ctx.ledger->oracle("a PODEM pattern misses its target fault", targets_detected);
}

// Fixed fault-list strides keep each circuit's PODEM to a few tenths of a
// second, so a run holds 15-20 passes (epfl_max's whole list is ~8 s of
// PODEM); each PODEM call costs what it does on the whole list. 1,024 random
// patterns leave PODEM the hard faults, whose set depends little on the seed.
std::vector<Circuit> podem_circuits() {
  struct Row {
    const char* file;
    std::size_t stride;
  };
  std::vector<Circuit> out;
  for (const Row row : {Row{"epfl_max.v", 128}, Row{"bar5315.v", 8}, Row{"vot7552.v", 8}}) {
    Circuit c;
    c.file = row.file;
    c.name = std::string(row.file).substr(0, std::string(row.file).find('.'));
    c.atpg = AtpgOptions{.random_patterns = 1024, .max_backtracks = 100};
    c.fault_stride = row.stride;
    out.push_back(c);
  }
  // The examples/coverage.spec slice, and one wider slice.
  for (const FifoSpec fifo : {FifoSpec{32, 2}, FifoSpec{32, 4}}) {
    Circuit c;
    c.fifo = fifo;
    c.name = "fifo" + std::to_string(fifo.depth) + "x" + std::to_string(fifo.width);
    c.chains = 8;
    c.kind = CodeKind::HammingPlusCrc;
    c.atpg = AtpgOptions{.random_patterns = 512, .max_backtracks = 300};
    c.fault_stride = 8;
    out.push_back(c);
  }
  return out;
}

std::vector<Circuit> coverage_circuits() {
  struct Row {
    const char* file;
    std::size_t chains;
    CodeKind kind;
    bool sequential;
  };
  // bench_external's import table: combinational circuits bare, '89-class
  // circuits wrapped in the protection architecture.
  const Row rows[] = {
      {"c17.v", 0, CodeKind::CrcDetect, false},
      {"add432.v", 0, CodeKind::CrcDetect, false},
      {"mul880.v", 0, CodeKind::CrcDetect, false},
      {"ecc499.v", 0, CodeKind::CrcDetect, false},
      {"par1355.v", 0, CodeKind::CrcDetect, false},
      {"cmp1908.v", 0, CodeKind::CrcDetect, false},
      {"ctl2670.v", 0, CodeKind::CrcDetect, false},
      {"alu3540.v", 0, CodeKind::CrcDetect, false},
      {"bar5315.v", 0, CodeKind::CrcDetect, false},
      {"mul6288.v", 0, CodeKind::CrcDetect, false},
      {"vot7552.v", 0, CodeKind::CrcDetect, false},
      {"s27.v", 3, CodeKind::CrcDetect, true},
      {"ctrl344.v", 4, CodeKind::HammingPlusCrc, true},
      {"pipe1196.v", 4, CodeKind::CrcDetect, true},
      {"ctrl5378.v", 4, CodeKind::CrcDetect, true},
      {"epfl_adder.v", 0, CodeKind::CrcDetect, false},
      {"epfl_bar.v", 0, CodeKind::CrcDetect, false},
      {"epfl_max.v", 0, CodeKind::CrcDetect, false},
  };
  std::vector<Circuit> out;
  for (const Row& row : rows) {
    Circuit c;
    c.file = row.file;
    c.name = std::string(row.file).substr(0, std::string(row.file).find('.'));
    c.chains = row.chains;
    c.kind = row.kind;
    c.test_width = row.chains == 3 ? 3 : 4;
    c.sequential = row.sequential;
    c.atpg = AtpgOptions{.random_patterns = 2048, .run_podem = false};
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::vector<Pass> run_podem_atpg(Context& ctx) {
  const std::vector<Circuit> circuits = podem_circuits();
  Tracer& tracer = *ctx.tracer;
  ThreadPool pool(ctx.threads);
  AtpgCounters counters;
  std::vector<Claims> kept;

  std::vector<Pass> passes = run_passes(ctx, [&] {
    Pass pass;
    kept.clear();
    std::uint64_t stream = 0;
    for (const Circuit& circuit : circuits) {
      AtpgOptions options = circuit.atpg;
      options.seed = derive_seed(ctx.seed, ++stream);
      try {
        Prepared prepared = prepare(ctx, circuit, pass.setup);
        Session& session = *prepared.session;
        const CombinationalFrame& frame = session.frame();
        const std::vector<Fault>& faults = prepared.faults();

        // Traced runs add the random phase alone, on the same frame and
        // seed: the full run minus it is the PODEM phase.
        AtpgResult random;
        if (tracer.enabled()) {
          options.run_podem = false;
          double ignored = 0.0;
          random = timed(tracer, "atpg.random", ignored,
                         [&] { return run_atpg(frame, faults, options); });
          ctx.ledger->finish(circuit.name + "/random", true, digest(random));
          count_random(counters, random, options);
          options.run_podem = true;
        }

        double op = 0.0;
        const AtpgResult full = timed(tracer, "atpg.run_atpg", op,
                                      [&] { return run_atpg(frame, faults, options); });
        ctx.ledger->finish(circuit.name + "/atpg", full.total_faults == faults.size(),
                           digest(full));
        counters.detected += static_cast<double>(full.detected());
        counters.untestable += static_cast<double>(full.untestable);
        counters.aborted += static_cast<double>(full.aborted);
        if (tracer.enabled()) {
          // Each PODEM call ends untestable, aborted, or in a kept pattern.
          counters.podem_calls +=
              static_cast<double>(full.untestable + full.aborted + full.patterns.size() -
                                  random.patterns.size());
        }

        if (circuit.file.empty()) {
          const ScanTestResult scan = timed(tracer, "atpg.scan_delivery", op, [&] {
            // Pooled test-mode delivery (apply_test_mode_scan_test_packed).
            return session.run_scan_test(
                full.patterns, ScanTestOptions{.patterns_per_shard = kPatternsPerShard});
          });
          ctx.ledger->finish(circuit.name + "/scan-test",
                             scan.mismatches == 0 &&
                                 scan.patterns_applied == full.patterns.size(),
                             digest(scan));
        } else {
          double sim_seconds = 0.0;
          const FaultSimResult stuck =
              pooled_sim(tracer, "atpg.faultsim_stuck", sim_seconds, counters, [&] {
                return fault_simulate(frame, faults, full.patterns, pool, kFaultShard);
              });
          op += sim_seconds;
          count_stuck(counters, stuck, full.patterns.size(), sim_seconds);
          // The final pattern set must detect exactly what ATPG claimed.
          ctx.ledger->finish(circuit.name + "/stuck", stuck.detected == full.detected(),
                             digest(stuck));
          kept.push_back({&circuit, full.patterns, random.patterns, stuck});
        }
        pass.ops.emplace_back(circuit.name, op);
        pass.work += static_cast<double>(faults.size());
      } catch (const std::exception& error) {
        ctx.ledger->fail(circuit.name, error.what());
      }
    }
    return pass;
  });

  run_oracles(ctx, kept);
  if (tracer.enabled()) {
    publish(ctx, counters, passes.size());
    probe_podem(ctx, kept);
  }
  return passes;
}

std::vector<Pass> run_coverage_suite(Context& ctx) {
  const std::vector<Circuit> circuits = coverage_circuits();
  Tracer& tracer = *ctx.tracer;
  ThreadPool pool(ctx.threads);
  AtpgCounters counters;
  std::vector<Claims> kept;

  std::vector<Pass> passes = run_passes(ctx, [&] {
    Pass pass;
    kept.clear();
    std::uint64_t stream = 0;
    for (const Circuit& circuit : circuits) {
      AtpgOptions options = circuit.atpg;
      options.seed = derive_seed(ctx.seed, ++stream);
      try {
        Prepared prepared = prepare(ctx, circuit, pass.setup);
        Session& session = *prepared.session;
        const CombinationalFrame& frame = session.frame();
        const std::vector<Fault>& faults = session.faults();
        const auto op = [&](const char* model, double seconds, std::size_t entries) {
          pass.ops.emplace_back(circuit.name + "/" + model, seconds);
          pass.work += static_cast<double>(entries);
        };

        double atpg_seconds = 0.0;
        const AtpgResult atpg = timed(tracer, "atpg.random", atpg_seconds,
                                      [&] { return run_atpg(frame, faults, options); });
        ctx.ledger->finish(circuit.name + "/atpg", atpg.total_faults == faults.size(),
                           digest(atpg));
        count_random(counters, atpg, options);
        counters.detected += static_cast<double>(atpg.detected());
        op("atpg", atpg_seconds, 0);
        const std::vector<BitVec>& patterns = atpg.patterns;

        double stuck_seconds = 0.0;
        const FaultSimResult stuck =
            pooled_sim(tracer, "atpg.faultsim_stuck", stuck_seconds, counters,
                       [&] { return fault_simulate(frame, faults, patterns, pool, kFaultShard); });
        count_stuck(counters, stuck, patterns.size(), stuck_seconds);
        ctx.ledger->finish(circuit.name + "/stuck", stuck.detected == atpg.detected(),
                           digest(stuck));
        op("stuck", stuck_seconds, faults.size());
        kept.push_back({&circuit, patterns, patterns, stuck});

        double transition_seconds = 0.0;
        const auto transition_faults = timed(tracer, "atpg.faults", transition_seconds, [&] {
          return enumerate_transition_faults(session.netlist());
        });
        const FaultSimResult transition =
            pooled_sim(tracer, "atpg.faultsim_transition", transition_seconds, counters, [&] {
              return transition_fault_simulate(frame, transition_faults, patterns, pool,
                                               kFaultShard);
            });
        ctx.ledger->finish(circuit.name + "/transition",
                           transition.total_faults == transition_faults.size(),
                           digest(transition));
        op("transition", transition_seconds, transition_faults.size());

        double bridging_seconds = 0.0;
        const auto bridging_faults = timed(tracer, "atpg.faults", bridging_seconds, [&] {
          return enumerate_bridging_faults(session.netlist());
        });
        const FaultSimResult bridging =
            pooled_sim(tracer, "atpg.faultsim_bridging", bridging_seconds, counters, [&] {
              return bridging_fault_simulate(frame, bridging_faults, patterns, pool,
                                             kFaultShard);
            });
        ctx.ledger->finish(circuit.name + "/bridging",
                           bridging.total_faults == bridging_faults.size(),
                           digest(bridging));
        op("bridging", bridging_seconds, bridging_faults.size());

        if (prepared.raw) {
          // Scan-free multi-cycle model on the raw import: 64 random input
          // sequences of 32 cycles each.
          double sequential_seconds = 0.0;
          Session bare = timed(tracer, "core.synth", pass.setup, [&] {
            return Session::unprotected(std::move(*prepared.raw),
                                        SessionOptions{.threads = ctx.threads});
          });
          const std::vector<Fault>& seq_faults =
              timed(tracer, "atpg.faults", pass.setup, [&]() -> auto& { return bare.faults(); });
          const FaultSimResult sequential = pooled_sim(
              tracer, "atpg.faultsim_sequential", sequential_seconds, counters, [&] {
                return sequential_fault_simulate(bare.netlist(), seq_faults, 64, 32,
                                                 options.seed, pool, kSequentialShard);
              });
          ctx.ledger->finish(circuit.name + "/sequential",
                             sequential.total_faults == seq_faults.size(), digest(sequential));
          op("sequential", sequential_seconds, seq_faults.size());
        }
      } catch (const std::exception& error) {
        ctx.ledger->fail(circuit.name, error.what());
      }
    }
    return pass;
  });

  run_oracles(ctx, kept);
  if (tracer.enabled()) {
    publish(ctx, counters, passes.size());
  }
  return passes;
}

}  // namespace perfbench
