#pragma once

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "retscan/runtime.hpp"
#include "retscan/sim.hpp"

namespace retscan::bench {

/// Sequence-count scaling for the statistical benches. The paper runs 100M
/// FPGA sequences; default bench runs are scaled down to finish in seconds.
/// Override with RETSCAN_SEQUENCES=<n> to run paper-scale campaigns.
/// Parsing (strict, with a warning on garbage) is centralized in
/// retscan::runtime_sequences; this is a bench-local alias.
inline std::size_t sequence_budget(std::size_t default_count) {
  return runtime_sequences(default_count);
}

inline void header(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// Print an ours-vs-paper comparison line.
inline void compare(const std::string& label, double ours, double paper,
                    const std::string& unit) {
  std::cout << std::left << std::setw(34) << label << std::right << "ours "
            << std::setw(10) << std::setprecision(4) << ours << " " << unit
            << "   paper " << std::setw(10) << paper << " " << unit << "\n";
}

/// Wall-clock timer for throughput metrics.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void restart() { start_ = std::chrono::steady_clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Sorted ratios num() / den() over `pairs` pairs of timed runs (each side
/// returns its seconds). The side that runs first alternates, den first in
/// even pairs, so neither side always follows the other; each ratio
/// compares two runs adjacent in time, and the median (ratios[size / 2])
/// discards the pairs a host hiccup landed on.
template <typename Num, typename Den>
std::vector<double> paired_ratios(int pairs, Num&& num, Den&& den) {
  std::vector<double> ratios;
  for (int pair = 0; pair < pairs; ++pair) {
    double num_seconds = 0.0;
    double den_seconds = 0.0;
    if (pair % 2 == 0) {
      den_seconds = den();
      num_seconds = num();
    } else {
      num_seconds = num();
      den_seconds = den();
    }
    ratios.push_back(num_seconds / den_seconds);
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios;
}

/// Machine-readable bench report: write() emits BENCH_<name>.json in the
/// working directory so the perf trajectory (sequences/sec, fault-evals/sec,
/// speedups) can be tracked across PRs alongside the human-readable lines.
///
/// Every report carries the execution-shape metadata that makes the numbers
/// comparable across hosts and builds — resolved thread count, hardware
/// concurrency, and the compiled lane width — seeded at construction so no
/// bench can forget them. set() upserts, so benches may overwrite the
/// defaults (e.g. with the thread count a specific experiment used).
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {
    const unsigned hw = std::thread::hardware_concurrency();
    set("threads", static_cast<double>(runtime_threads()));
    set("hardware_concurrency", static_cast<double>(hw == 0 ? 1 : hw));
    set("lane_words", static_cast<double>(kLaneWords));
    set("lane_bits", static_cast<double>(kLaneBlockBits));
  }

  void set(const std::string& key, double value) {
    for (auto& [existing_key, existing_value] : metrics_) {
      if (existing_key == key) {
        existing_value = value;
        return;
      }
    }
    metrics_.emplace_back(key, value);
  }

  void write() const {
    std::ofstream os("BENCH_" + name_ + ".json");
    os << "{\n  \"bench\": \"" << name_ << "\"";
    os << std::setprecision(12);
    for (const auto& [key, value] : metrics_) {
      os << ",\n  \"" << key << "\": " << value;
    }
    os << "\n}\n";
    std::cout << "[json] BENCH_" << name_ << ".json written (" << metrics_.size()
              << " metrics)\n";
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace retscan::bench
