#include "retscan/runtime.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <ostream>
#include <thread>

#include "retscan/version.hpp"
#include "util/lanes.hpp"

namespace retscan {

namespace {

/// Strict positive-decimal-integer parse shared by both knobs: the whole
/// string must be consumed, the value must be > 0 and fit without overflow.
std::optional<unsigned long long> parse_positive(const char* text) {
  if (text == nullptr || *text == '\0') {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || value <= 0) {
    return std::nullopt;
  }
  return static_cast<unsigned long long>(value);
}

unsigned hardware_fallback() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned threads_override() {
  const char* env = std::getenv("RETSCAN_THREADS");
  if (env == nullptr) {
    return 0;
  }
  const auto value = parse_positive(env);
  if (value && *value <= 4096) {
    return static_cast<unsigned>(*value);
  }
  std::fprintf(stderr,
               "[retscan] warning: invalid RETSCAN_THREADS='%s' (want 1..4096); "
               "using %u\n",
               env, hardware_fallback());
  return 0;
}

std::optional<std::size_t> sequences_override() {
  const char* env = std::getenv("RETSCAN_SEQUENCES");
  if (env == nullptr) {
    return std::nullopt;
  }
  const auto value = parse_positive(env);
  if (value) {
    return static_cast<std::size_t>(*value);
  }
  std::fprintf(stderr,
               "[retscan] warning: invalid RETSCAN_SEQUENCES='%s' (want a "
               "positive integer); using the built-in default\n",
               env);
  return std::nullopt;
}

/// The parsed environment and whether the thread count came from
/// RETSCAN_THREADS, so the provenance block labels what this parse chose.
struct ParsedRuntime {
  RuntimeConfig config;
  bool threads_from_env = false;
};

ParsedRuntime parse_runtime_config() {
  ParsedRuntime parsed;
  const unsigned override = threads_override();
  parsed.threads_from_env = override != 0;
  parsed.config.threads = override != 0 ? override : hardware_fallback();
  parsed.config.sequences = sequences_override();
  return parsed;
}

std::mutex& config_mutex() {
  static std::mutex mutex;
  return mutex;
}

std::optional<ParsedRuntime>& config_cache() {
  static std::optional<ParsedRuntime> cache;
  return cache;
}

ParsedRuntime cached_runtime() {
  const std::lock_guard<std::mutex> lock(config_mutex());
  std::optional<ParsedRuntime>& cache = config_cache();
  if (!cache) {
    cache = parse_runtime_config();
  }
  return *cache;
}

}  // namespace

RuntimeConfig runtime_config() {
  return cached_runtime().config;
}

RuntimeConfig runtime_config_refresh() {
  const std::lock_guard<std::mutex> lock(config_mutex());
  config_cache() = parse_runtime_config();
  return config_cache()->config;
}

unsigned runtime_threads() {
  return runtime_config().threads;
}

std::size_t runtime_sequences(std::size_t default_count) {
  return runtime_config().sequences.value_or(default_count);
}

BuildInfo build_info() {
  const RuntimeConfig config = runtime_config();
  BuildInfo info;
  info.version = RETSCAN_VERSION_STRING;
  info.lane_words = kLaneWords;
  info.lane_bits = kLaneBlockBits;
#ifdef __AVX2__
  info.avx2 = true;
#else
  info.avx2 = false;
#endif
  info.threads = config.threads;
  return info;
}

void print_build_info(std::ostream& out) {
  const BuildInfo info = build_info();
  const ParsedRuntime runtime = cached_runtime();
  out << "retscan:  " << info.version << "\n"
      << "lanes:    " << info.lane_words << " x 64 = " << info.lane_bits
      << " per block (" << (info.avx2 ? "avx2" : "portable") << " kernels)\n"
      << "threads:  " << runtime.config.threads << " ("
      << (runtime.threads_from_env ? "RETSCAN_THREADS" : "hardware") << ")\n";
}

}  // namespace retscan
