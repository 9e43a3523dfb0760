#include "util/journal.hpp"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace retscan {

namespace {

/// Slicing-by-8 tables: [0][b] is the CRC32 step of byte b, and [k][b]
/// carries that step through k more zero bytes, so eight input bytes fold
/// in with eight independent lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Tables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t value = 0; value < 256; ++value) {
    std::uint32_t crc = value;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    tables[0][value] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t value = 0; value < 256; ++value) {
      const std::uint32_t prior = tables[k - 1][value];
      tables[k][value] = (prior >> 8) ^ tables[0][prior & 0xFFu];
    }
  }
  return tables;
}();

std::uint32_t load_le32(const unsigned char* bytes) {
  return bytes[0] | std::uint32_t{bytes[1]} << 8 | std::uint32_t{bytes[2]} << 16 |
         std::uint32_t{bytes[3]} << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  const auto& t = kCrc32Tables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, bytes += 8) {
    const std::uint32_t low = load_le32(bytes) ^ crc;
    const std::uint32_t high = load_le32(bytes + 4);
    crc = t[7][low & 0xFFu] ^ t[6][low >> 8 & 0xFFu] ^ t[5][low >> 16 & 0xFFu] ^
          t[4][low >> 24] ^ t[3][high & 0xFFu] ^ t[2][high >> 8 & 0xFFu] ^
          t[1][high >> 16 & 0xFFu] ^ t[0][high >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace {

constexpr std::uint32_t kMagic = 0x4A435352u;  // "RSCJ"
constexpr std::uint32_t kFormat = 1;

/// Serialized sizes: fixed-width fields, no padding, host endianness (a
/// journal is a local crash-recovery artifact, not an interchange format).
constexpr std::size_t kHeaderBytes = 4 + 4 + 5 * 8 + 4;
constexpr std::size_t kRecordBytes =
    8 + (JournalRecord::kStatsWords + JournalRecord::kTelemetryWords) * 8 + 4;

/// Store `value` at `out` in host byte order; returns the byte after it.
template <typename T>
unsigned char* put(unsigned char* out, T value) {
  std::memcpy(out, &value, sizeof value);
  return out + sizeof value;
}

std::uint32_t get_u32(const unsigned char* in) {
  std::uint32_t value;
  std::memcpy(&value, in, 4);
  return value;
}

std::uint64_t get_u64(const unsigned char* in) {
  std::uint64_t value;
  std::memcpy(&value, in, 8);
  return value;
}

/// Write the kHeaderBytes of `header` at `out`.
void serialize_header(unsigned char* out, const CampaignJournal::Header& header) {
  unsigned char* at = put(out, kMagic);
  at = put(at, kFormat);
  at = put(at, header.fingerprint);
  at = put(at, header.seed);
  at = put(at, header.total);
  at = put(at, header.shard_size);
  at = put(at, header.shard_count);
  put(at, crc32(out, kHeaderBytes - 4));
}

/// Write the kRecordBytes of `record` at `out`.
void serialize_record(unsigned char* out, const JournalRecord& record) {
  unsigned char* at = put(out, record.shard_index);
  for (const std::uint64_t word : record.stats) {
    at = put(at, word);
  }
  for (const std::uint64_t word : record.telemetry) {
    at = put(at, word);
  }
  put(at, crc32(out, kRecordBytes - 4));
}

/// Header bytes → Header; false on bad magic/format/CRC (torn or foreign
/// file — callers treat that as "no usable journal").
bool parse_header(const unsigned char* bytes, std::size_t size,
                  CampaignJournal::Header& out) {
  if (size < kHeaderBytes || get_u32(bytes) != kMagic ||
      get_u32(bytes + 4) != kFormat ||
      get_u32(bytes + kHeaderBytes - 4) != crc32(bytes, kHeaderBytes - 4)) {
    return false;
  }
  out.fingerprint = get_u64(bytes + 8);
  out.seed = get_u64(bytes + 16);
  out.total = get_u64(bytes + 24);
  out.shard_size = get_u64(bytes + 32);
  out.shard_count = get_u64(bytes + 40);
  return true;
}

bool read_file(const std::string& path, std::vector<unsigned char>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  out.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  return true;
}

std::string hex(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

CampaignJournal::CampaignJournal(std::string path, std::uint64_t fingerprint,
                                 std::uint64_t seed, Mode mode)
    : path_(std::move(path)) {
  header_.fingerprint = fingerprint;
  header_.seed = seed;
  if (mode == Mode::Resume) {
    load_existing();
  } else {
    std::remove(path_.c_str());  // Truncate: a stale journal must not linger
  }
}

CampaignJournal::~CampaignJournal() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void CampaignJournal::load_existing() {
  failpoint("journal.load");
  std::vector<unsigned char> bytes;
  if (!read_file(path_, bytes)) {
    return;  // no journal yet — resume degenerates to a fresh run
  }
  Header loaded;
  if (!parse_header(bytes.data(), bytes.size(), loaded)) {
    std::fprintf(stderr,
                 "retscan: warning: checkpoint journal '%s' has a torn or "
                 "foreign header — ignoring it and starting fresh\n",
                 path_.c_str());
    return;
  }
  if (loaded.fingerprint != header_.fingerprint) {
    throw Error("checkpoint journal '" + path_ +
                "' was written by a different campaign, design or library "
                "version (journal fingerprint " + hex(loaded.fingerprint) +
                ", current " + hex(header_.fingerprint) +
                ") — rerun without --resume to discard it, or restore the "
                "original spec/netlist");
  }
  if (loaded.seed != header_.seed) {
    throw Error("checkpoint journal '" + path_ + "' was written with seed " +
                std::to_string(loaded.seed) + ", not the current seed " +
                std::to_string(header_.seed) +
                " — resumed shards are only bit-exact under the original "
                "seed; rerun without --resume to discard it");
  }
  header_ = loaded;
  plan_bound_ = header_.total != 0;

  std::size_t offset = kHeaderBytes;
  durable_ = kHeaderBytes;
  while (offset + kRecordBytes <= bytes.size()) {
    const unsigned char* record_bytes = bytes.data() + offset;
    if (get_u32(record_bytes + kRecordBytes - 4) !=
        crc32(record_bytes, kRecordBytes - 4)) {
      break;  // torn write: keep the valid prefix, rerun the rest
    }
    JournalRecord record;
    record.shard_index = get_u64(record_bytes);
    for (std::size_t i = 0; i < JournalRecord::kStatsWords; ++i) {
      record.stats[i] = get_u64(record_bytes + 8 + i * 8);
    }
    for (std::size_t i = 0; i < JournalRecord::kTelemetryWords; ++i) {
      record.telemetry[i] =
          get_u64(record_bytes + 8 + (JournalRecord::kStatsWords + i) * 8);
    }
    if (index_.emplace(record.shard_index, records_.size()).second) {
      records_.push_back(record);
      if (durable_ == offset) {
        durable_ += kRecordBytes;  // still byte-identical to what we'd write
      }
    }
    offset += kRecordBytes;
  }
  resumed_count_ = records_.size();
  const std::size_t tail = bytes.size() - offset;
  if (tail != 0) {
    dropped_count_ = (tail + kRecordBytes - 1) / kRecordBytes;
    std::fprintf(stderr,
                 "retscan: warning: checkpoint journal '%s' ends in a torn "
                 "write — kept %zu record(s), dropped %zu (those shards "
                 "rerun)\n",
                 path_.c_str(), resumed_count_, dropped_count_);
  }
}

void CampaignJournal::bind_plan(std::uint64_t total, std::uint64_t shard_size,
                                std::uint64_t shard_count) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (plan_bound_) {
    if (header_.total != total || header_.shard_size != shard_size ||
        header_.shard_count != shard_count) {
      throw Error("checkpoint journal '" + path_ + "' was written for " +
                  std::to_string(header_.total) + " trials in " +
                  std::to_string(header_.shard_count) + " shard(s) of " +
                  std::to_string(header_.shard_size) +
                  "; the current campaign plans " + std::to_string(total) +
                  " trials in " + std::to_string(shard_count) +
                  " shard(s) of " + std::to_string(shard_size) +
                  " — resumed shards are only bit-exact under the identical "
                  "shard plan; rerun with the original sequences/shard_size "
                  "or without --resume");
    }
    return;
  }
  header_.total = total;
  header_.shard_size = shard_size;
  header_.shard_count = shard_count;
  plan_bound_ = true;
  durable_ = 0;  // the header on disk (if any) lacks the plan
}

std::optional<JournalRecord> CampaignJournal::find(
    std::uint64_t shard_index) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(shard_index);
  if (it == index_.end()) {
    return std::nullopt;
  }
  return records_[it->second];
}

void CampaignJournal::append(const JournalRecord& record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (index_.emplace(record.shard_index, records_.size()).second) {
    records_.push_back(record);
  }
  flush_locked();
}

void CampaignJournal::flush_locked() {
  if (fd_ < 0) {
    const int fd = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    // Drop whatever lies past the bytes this journal already vouches for:
    // a torn or foreign tail on resume, a file recreated since Truncate.
    if (fd < 0 || ::ftruncate(fd, static_cast<off_t>(durable_)) != 0) {
      if (fd >= 0) {
        ::close(fd);
      }
      throw Error("checkpoint journal: cannot open '" + path_ +
                  "' — check the directory exists and is writable");
    }
    fd_ = fd;
  }

  // Serialize from the record boundary at or below the durable length;
  // normally that is just the new record.
  const std::size_t size = kHeaderBytes + records_.size() * kRecordBytes;
  std::size_t base = 0;
  std::size_t first = 0;
  if (durable_ >= kHeaderBytes) {
    first = (durable_ - kHeaderBytes) / kRecordBytes;
    base = kHeaderBytes + first * kRecordBytes;
  }
  std::vector<unsigned char>& bytes = scratch_;
  bytes.resize(size - base);
  unsigned char* at = bytes.data();
  if (base == 0) {
    serialize_header(at, header_);
    at += kHeaderBytes;
  }
  for (std::size_t i = first; i < records_.size(); ++i, at += kRecordBytes) {
    serialize_record(at, records_[i]);
  }

  std::size_t end = size;
  if (failpoint("journal.flush") == FailAction::ShortWrite) {
    // Simulate a torn write: leave exactly the file a crash halfway through
    // writing the whole journal would — the next append heals it.
    end = kHeaderBytes + (size - kHeaderBytes) / 2;
    if (end < durable_) {
      if (::ftruncate(fd_, static_cast<off_t>(end)) != 0) {
        throw Error("checkpoint journal: cannot truncate '" + path_ + "'");
      }
      durable_ = end;
      return;
    }
  }
  while (durable_ < end) {
    const ssize_t written =
        ::pwrite(fd_, bytes.data() + (durable_ - base), end - durable_,
                 static_cast<off_t>(durable_));
    if (written < 0 && errno == EINTR) {
      continue;
    }
    if (written <= 0) {
      throw Error("checkpoint journal: cannot write '" + path_ + "'");
    }
    durable_ += static_cast<std::size_t>(written);
  }
}

std::optional<CampaignJournal::Header> CampaignJournal::peek(
    const std::string& path) {
  std::vector<unsigned char> bytes;
  Header header;
  if (!read_file(path, bytes) ||
      !parse_header(bytes.data(), bytes.size(), header)) {
    return std::nullopt;
  }
  return header;
}

}  // namespace retscan
