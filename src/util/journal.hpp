#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace retscan {

/// One journaled shard outcome: the shard's ValidationStats counters and its
/// ScheduleTelemetry counters, flattened to raw u64 arrays so the journal
/// stays a pure util-layer facility (the parallel layer owns the
/// ShardOutcome ⇄ JournalRecord conversion). Merged in shard-index order on
/// resume, exactly like freshly run shards — which is why a resumed campaign
/// is bit-identical to an uninterrupted one.
struct JournalRecord {
  static constexpr std::size_t kStatsWords = 8;
  static constexpr std::size_t kTelemetryWords = 6;

  std::uint64_t shard_index = 0;
  std::uint64_t stats[kStatsWords] = {};
  std::uint64_t telemetry[kTelemetryWords] = {};
};

/// Crash-safe campaign checkpoint journal.
///
/// On-disk format (host-endian, fixed-width little structs):
///
///     header:  magic 'RSCJ' u32 | format u32 | fingerprint u64 | seed u64
///              | total u64 | shard_size u64 | shard_count u64 | crc32 u32
///     record:  shard_index u64 | 8×u64 stats | 6×u64 telemetry | crc32 u32
///
/// The journal holds one descriptor from its first append to destruction.
/// An append writes only the bytes past what is already on disk, in one
/// positional write: normally just the new record, and after a torn write
/// the missing tail as well. So an append costs one record however many
/// shards came before, which keeps checkpointing noise even for
/// sub-millisecond shards (gated ≤ 1.05 overhead in
/// ci/check_bench_json.py). A crash mid-write can only leave a torn tail,
/// and the loader tolerates exactly that: records with a bad or missing CRC
/// are dropped (their shards simply rerun).
///
/// The fingerprint (spec + design geometry + library version, computed by
/// the API layer) and seed bind a journal to one exact campaign; Resume
/// mode rejects mismatches with an actionable error instead of silently
/// merging foreign statistics.
class CampaignJournal {
 public:
  enum class Mode {
    Truncate, ///< start fresh, discarding any existing file at `path`
    Resume,   ///< load existing records; validate header against args
  };

  /// Opens (Resume) or resets (Truncate) the journal. Resume with no file
  /// at `path` starts fresh; Resume with a mismatched fingerprint/seed
  /// throws retscan::Error.
  CampaignJournal(std::string path, std::uint64_t fingerprint,
                  std::uint64_t seed, Mode mode);

  ~CampaignJournal();

  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  /// Bind the shard plan before the first append/find. On resume, rejects a
  /// journal written under a different (total, shard_size) plan — resumed
  /// records are only bit-exact under the identical shard decomposition.
  void bind_plan(std::uint64_t total, std::uint64_t shard_size,
                 std::uint64_t shard_count);

  /// The journaled outcome of shard `shard_index`, or nullptr if that shard
  /// has not completed. Thread-safe against concurrent append().
  std::optional<JournalRecord> find(std::uint64_t shard_index) const;

  /// Append one completed shard and write it through. Thread-safe. Throws
  /// retscan::Error on I/O failure.
  void append(const JournalRecord& record);

  /// Records loaded from disk by Resume (before any append this run).
  std::size_t resumed_count() const { return resumed_count_; }
  /// Records dropped on load because of a short write / bad CRC.
  std::size_t dropped_count() const { return dropped_count_; }

  const std::string& path() const { return path_; }

  /// Read just the header of an existing journal — what validate() uses to
  /// reject a --resume against the wrong spec before any work starts.
  /// nullopt when the file is missing or its header is torn/corrupt (both
  /// mean "no usable journal", not an error).
  struct Header {
    std::uint64_t fingerprint = 0;
    std::uint64_t seed = 0;
    std::uint64_t total = 0;
    std::uint64_t shard_size = 0;
    std::uint64_t shard_count = 0;
  };
  static std::optional<Header> peek(const std::string& path);

 private:
  void load_existing();
  void flush_locked();

  std::string path_;
  Header header_;
  bool plan_bound_ = false;
  std::size_t resumed_count_ = 0;
  std::size_t dropped_count_ = 0;

  mutable std::mutex mutex_;
  int fd_ = -1;
  /// Leading bytes of the file known to equal header_ + records_.
  std::size_t durable_ = 0;
  std::vector<unsigned char> scratch_;  ///< serialized bytes of one append
  std::vector<JournalRecord> records_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

/// CRC32 (reflected 0xEDB88320, the zlib polynomial) over `size` bytes —
/// the integrity check on every journal header and record.
std::uint32_t crc32(const void* data, std::size_t size);

}  // namespace retscan
