#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "retscan/coding.hpp"
#include "retscan/serve.hpp"
#include "util/rng.hpp"

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

// --- Tracer -----------------------------------------------------------------

namespace {

std::uint32_t thread_tag() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tag = next.fetch_add(1);
  return tag;
}

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int64_t> open_spans;

using Interval = std::pair<double, double>;

std::vector<Interval> merged(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<Interval> out;
  for (const Interval& iv : intervals) {
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

bool inside(const std::vector<Interval>& windows, double t) {
  for (const Interval& w : windows) {
    if (t >= w.first && t <= w.second) {
      return true;
    }
  }
  return false;
}

}  // namespace

Tracer::Span::Span(Tracer& tracer, const char* name)
    : tracer_(&tracer), name_(name), start_(wall_now()) {
  if (tracer_->enabled_) {
    index_ = tracer_->open(name_, start_);
  }
}

Tracer::Span::~Span() { stop(); }

double Tracer::Span::stop() {
  if (seconds_ < 0.0) {
    const double end = wall_now();
    seconds_ = end - start_;
    if (index_ >= 0) {
      tracer_->close(index_, end);
    }
  }
  return seconds_;
}

std::int64_t Tracer::open(const char* name, double start) {
  const double t0 = wall_now();
  const std::lock_guard<std::mutex> lock(mutex_);
  Record record;
  record.name = name;
  record.tid = thread_tag();
  record.start = start;
  record.end = -1.0;
  record.parent = open_spans.empty() ? -1 : open_spans.back();
  records_.push_back(std::move(record));
  const std::int64_t index = static_cast<std::int64_t>(records_.size()) - 1;
  open_spans.push_back(index);
  overhead_ += wall_now() - t0;
  return index;
}

void Tracer::close(std::int64_t index, double end) {
  const double t0 = wall_now();
  const std::lock_guard<std::mutex> lock(mutex_);
  records_[static_cast<std::size_t>(index)].end = end;
  if (!open_spans.empty() && open_spans.back() == index) {
    open_spans.pop_back();
  }
  overhead_ += wall_now() - t0;
}

void Tracer::add_window(double start, double end) {
  const std::lock_guard<std::mutex> lock(mutex_);
  windows_.emplace_back(start, end);
}

double Tracer::window_seconds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Interval& w : windows_) {
    total += w.second - w.first;
  }
  return total;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> self(records_.size(), 0.0);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] += records_[i].end - records_[i].start;
    if (records_[i].parent >= 0) {
      self[static_cast<std::size_t>(records_[i].parent)] -=
          records_[i].end - records_[i].start;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (inside(windows_, records_[i].start)) {
      out[records_[i].name] += self[i];
    }
  }
  return out;
}

double Tracer::coverage() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Interval> top;
  for (const Record& record : records_) {
    if (record.parent < 0 && record.end >= record.start) {
      top.emplace_back(record.start, record.end);
    }
  }
  const std::vector<Interval> spans = merged(std::move(top));
  const std::vector<Interval> windows = merged(windows_);
  double covered = 0.0;
  double total = 0.0;
  for (const Interval& w : windows) {
    total += w.second - w.first;
    for (const Interval& s : spans) {
      covered += std::max(0.0, std::min(w.second, s.second) - std::max(w.first, s.first));
    }
  }
  return total > 0.0 ? covered / total : 0.0;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  using retscan::serve::Json;
  const std::lock_guard<std::mutex> lock(mutex_);
  double origin = 0.0;
  for (const Interval& w : windows_) {
    origin = origin == 0.0 ? w.first : std::min(origin, w.first);
  }
  const auto event = [origin](const std::string& name, std::uint32_t tid, double start,
                              double end) {
    Json json = Json::Object{};
    const std::string category = name.substr(0, name.find('.'));
    json.set("name", name)
        .set("cat", category)
        .set("ph", "X")
        .set("pid", 1)
        .set("tid", tid)
        .set("ts", (start - origin) * 1e6)
        .set("dur", (end - start) * 1e6);
    return json;
  };
  Json events = Json::Array{};
  for (const Interval& w : windows_) {
    events.push(event("pass", 0, w.first, w.second));
  }
  for (const Record& record : records_) {
    if (record.end >= record.start) {
      events.push(event(record.name, record.tid, record.start, record.end));
    }
  }
  Json trace = Json::Object{};
  trace.set("traceEvents", std::move(events)).set("displayTimeUnit", "ms");
  std::ofstream out(path);
  out << trace.dump() << "\n";
  if (!out) {
    throw std::runtime_error("cannot write trace '" + path + "'");
  }
}

// --- Ledger -----------------------------------------------------------------

void Ledger::finish(const std::string& op, bool ok, std::uint64_t digest) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  std::string why;
  if (!ok) {
    why = "incomplete or oracle violated";
  } else if (const auto seen = seen_.find(op); seen != seen_.end()) {
    if (seen->second != digest) {
      why = "output differs from an earlier pass of the same inputs";
    }
  } else if (check_goldens_) {
    const auto golden = goldens_.find(workload_ + "/" + op);
    if (golden == goldens_.end()) {
      why = "no golden pinned";
    } else if (golden->second != digest) {
      why = "output differs from its golden";
    }
  }
  seen_.emplace(op, digest);
  if (!why.empty()) {
    ++failed_;
    std::cerr << "FAILED " << workload_ << "/" << op << ": " << why << "\n";
  }
}

void Ledger::fail(const std::string& op, const std::string& why) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  ++failed_;
  std::cerr << "FAILED " << workload_ << "/" << op << ": " << why << "\n";
}

void Ledger::oracle(const std::string& what, bool ok) {
  if (ok) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  ++failed_;
  std::cerr << "FAILED " << workload_ << " oracle: " << what << "\n";
}

std::uint64_t Ledger::attempted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

std::uint64_t Ledger::failed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

std::map<std::string, std::uint64_t> Ledger::digests() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return seen_;
}

// --- coding probe -----------------------------------------------------------

void probe_coding(Context& ctx) {
  using namespace retscan;
  constexpr std::size_t kChains = 80;
  constexpr std::size_t kLength = 13;  // 1040 FIFO flops / 80 chains
  constexpr int kCalls = 200;
  constexpr int kBatches = 5;
  Tracer::Span span(*ctx.tracer, "coding.probe");

  Rng rng(derive_seed(ctx.seed, 0xC0D1));
  std::vector<BitVec> data;
  for (std::size_t c = 0; c < kChains; ++c) {
    data.push_back(rng.next_bits(kLength));
  }
  HammingChainProtector hamming(HammingCode(3), kChains, kLength);
  CrcChainProtector crc(Crc16(0x1021, "CRC-16"), kChains, kLength, kChains);

  // Median over batches of the per-call cost; `sink` keeps results live.
  std::size_t sink = 0;
  const auto per_call_us = [&](auto&& call) {
    std::vector<double> batches;
    for (int b = 0; b < kBatches; ++b) {
      const double start = wall_now();
      for (int i = 0; i < kCalls; ++i) {
        sink += call();
      }
      batches.push_back((wall_now() - start) * 1e6 / kCalls);
    }
    return median(batches);
  };
  ctx.layer["coding.hamming_encode_us"] = per_call_us([&] {
    hamming.encode(data);
    return std::size_t{1};
  });
  ctx.layer["coding.hamming_decode_us"] = per_call_us([&] {
    std::vector<BitVec> copy = data;
    return hamming.decode_and_correct(copy).words_with_error;
  });
  ctx.layer["coding.crc_encode_us"] = per_call_us([&] {
    crc.encode(data);
    return std::size_t{1};
  });
  ctx.layer["coding.crc_check_us"] = per_call_us([&] {
    return crc.check(data).groups_mismatched;
  });
  // Clean data must check clean (the counters above summed to kCalls * 2
  // encodes and zero errors); a single upset must be corrected / detected.
  std::vector<BitVec> upset = data;
  upset[rng.next_below(kChains)].flip(rng.next_below(kLength));
  const bool detected = crc.check(upset).any_error();
  const bool corrected = hamming.decode_and_correct(upset).bits_corrected == 1 && upset == data;
  ctx.ledger->oracle("coding probe: clean data flagged",
                     sink == static_cast<std::size_t>(2 * kCalls * kBatches));
  ctx.ledger->oracle("coding probe: single upset not detected and corrected",
                     detected && corrected);
}

}  // namespace perfbench
