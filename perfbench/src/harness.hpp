#pragma once

// Shared plumbing of the perfbench binary: clocks, the span tracer, the
// operation ledger with its goldens, and the per-pass record every workload
// fills in. Workloads time each call into a retscan layer with a Span; the
// same spans feed the end-to-end numbers (always) and the trace (only when
// tracing is on), so the traced and untraced runs execute the same calls.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seed every workload uses when the caller passes none; goldens are pinned
/// for it. Any other seed is checked by the oracles alone.
inline constexpr std::uint64_t kDefaultSeed = 1;

double wall_now();  ///< steady-clock seconds since an arbitrary epoch
double cpu_now();   ///< process user + system CPU seconds
double peak_rss_mib();

/// Independent stream `stream` of a workload seed (splitmix64 finalizer), so
/// each campaign's seed is a pure function of (workload seed, campaign).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

class Tracer {
 public:
  struct Record {
    std::string name;
    std::uint32_t tid = 0;
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;  ///< index of the enclosing span on its thread
  };

  /// Times one call into a layer. Always measures (seconds()); records the
  /// span only when the tracer is enabled. Spans nest per thread.
  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Close the span now (idempotent) and return its duration.
    double stop();

   private:
    Tracer* tracer_;
    const char* name_;
    double start_;
    double seconds_ = -1.0;
    std::int64_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Mark the start and end of a measured pass: coverage and self-time
  /// shares are taken over the union of these windows.
  void add_window(double start, double end);

  /// Sum of span self times (duration minus child spans) by span name.
  std::map<std::string, double> self_seconds() const;
  /// Traced wall time: the sum of the pass windows.
  double window_seconds() const;
  /// Share of the windows covered by at least one top-level span.
  double coverage() const;
  /// Seconds spent inside the tracer's own bookkeeping.
  double overhead_seconds() const { return overhead_; }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  void write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t open(const char* name, double start);
  void close(std::int64_t index, double end);

  bool enabled_;
  mutable std::mutex mutex_;  ///< guards everything below
  std::vector<Record> records_;
  std::vector<std::pair<double, double>> windows_;
  double overhead_ = 0.0;
};

/// Run `fn` inside a span named `name`, add its duration to `total`, and
/// return its result (references included).
template <typename Fn>
decltype(auto) timed(Tracer& tracer, const char* name, double& total, Fn&& fn) {
  Tracer::Span span(tracer, name);
  struct Accumulate {
    Tracer::Span& span;
    double& total;
    ~Accumulate() { total += span.stop(); }
  } accumulate{span, total};
  return fn();
}

/// Attempted/failed operation accounting plus golden and determinism
/// checks. An operation is one campaign or one serve job.
class Ledger {
 public:
  Ledger(std::string workload, bool check_goldens, std::map<std::string, std::uint64_t> goldens)
      : workload_(std::move(workload)),
        check_goldens_(check_goldens),
        goldens_(std::move(goldens)) {}

  /// One finished operation. `ok` is false when it ended non-Complete or an
  /// inline oracle failed. Its digest must equal the golden (default seed)
  /// and every earlier pass's digest for the same operation.
  void finish(const std::string& op, bool ok, std::uint64_t digest);
  /// An operation that threw.
  void fail(const std::string& op, const std::string& why);
  /// A post-run oracle over operations already counted: a violation marks
  /// one more failure without adding an attempt.
  void oracle(const std::string& what, bool ok);

  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  /// First-pass digests, for pinning goldens.
  std::map<std::string, std::uint64_t> digests() const;

 private:
  std::string workload_;
  bool check_goldens_;
  std::map<std::string, std::uint64_t> goldens_;
  mutable std::mutex mutex_;  ///< guards everything below
  std::map<std::string, std::uint64_t> seen_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One measured pass over a workload's operations.
struct Pass {
  double wall = 0.0;   ///< whole pass, setup included
  double setup = 0.0;  ///< building inputs before the campaigns run
  double work = 0.0;   ///< sequences, fault-list entries or jobs completed
  /// Overlapping operations only: the loop time the job rate is taken over
  /// (back-to-back operations use the sum of their latencies).
  double work_seconds = 0.0;
  /// Latency of each operation (campaign or job), by operation name.
  std::vector<std::pair<std::string, double>> ops;
  /// Trailing shutdown the pass had to wait for but does not measure (the
  /// serve daemon's poll-interval drain); cut from wall and trace window.
  double teardown = 0.0;
};

/// Everything a workload gets from main().
struct Context {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  unsigned threads = 1;       ///< pool threads (= nproc)
  std::string root;           ///< checkout root (bench/circuits lives here)
  std::string scratch;        ///< writable directory inside the checkout
  Tracer* tracer = nullptr;
  Ledger* ledger = nullptr;
  /// Operations run concurrently (serve jobs) rather than back to back.
  bool overlapping_ops = false;
  /// Per-layer metrics gathered on the traced run, by metric name.
  std::map<std::string, double> layer;
};

/// Run passes until `ctx.seconds` is spent (at least one), each framed by a
/// tracer window.
template <typename PassFn>
std::vector<Pass> run_passes(Context& ctx, PassFn&& pass_fn) {
  std::vector<Pass> passes;
  const double begin = wall_now();
  for (;;) {
    const double start = wall_now();
    Pass pass = pass_fn();
    const double end = wall_now() - pass.teardown;
    pass.wall = end - start;
    ctx.tracer->add_window(start, end);
    passes.push_back(std::move(pass));
    // Start another pass only if a typical one still fits the budget.
    std::vector<double> walls;
    for (const Pass& p : passes) {
      walls.push_back(p.wall);
    }
    if (end - begin + median(walls) > ctx.seconds) {
      break;
    }
  }
  return passes;
}

/// Per-workload entry points (one process runs one workload).
std::vector<Pass> run_paper_validation(Context& ctx);
std::vector<Pass> run_podem_atpg(Context& ctx);
std::vector<Pass> run_coverage_suite(Context& ctx);
std::vector<Pass> run_serve_mix(Context& ctx);

/// Per-call cost of the behavioral protectors on the paper's 80 x 13 chain
/// geometry (coding.*_us); cheap, so every traced run takes it.
void probe_coding(Context& ctx);

}  // namespace perfbench
