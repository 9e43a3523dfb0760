// Mutation fuzzing of the checkpoint-journal loader, the reader of untrusted
// bytes behind `--resume` and `campaign.resume`. The seed corpus is journals
// this test writes through CampaignJournal (Truncate mode, one shard plan)
// holding 0, 1, 3 and 8 records, plus the 3-record journal cut off halfway
// through its last record. Each mutant (byte deletes, inserts, replacements
// and splices, stacked) is written to a file and reopened in Resume mode with
// the corpus fingerprint and seed; the plan is bound and every shard looked
// up. Every outcome must be success or retscan::Error, and any record the
// journal hands back must equal, word for word, the one appended for that
// shard: the per-record CRC must turn every corruption into a dropped
// record, never into foreign statistics. A sanitizer build (CI's
// differential-fuzz job) also aborts on memory or UB faults. Seeds are
// deterministic; set RETSCAN_FUZZ_SEEDS to widen the sweep (CI runs 64,
// default 16).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fuzz_seeds.hpp"
#include "util/error.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace retscan {
namespace {

constexpr std::uint64_t kFingerprint = 0x0DDBA11C0FFEE123ull;
constexpr std::uint64_t kSeed = 91;
constexpr std::uint64_t kTotal = 1000;
constexpr std::uint64_t kShardSize = 125;
constexpr std::uint64_t kShardCount = 8;

/// The record every corpus journal appends for `shard`, so a record spliced
/// from one journal into another is still the one appended for its shard.
JournalRecord record_of(std::uint64_t shard) {
  JournalRecord record;
  record.shard_index = shard;
  for (std::size_t i = 0; i < JournalRecord::kStatsWords; ++i) {
    record.stats[i] = 0x5157'0000'0000ull ^ (shard * 131 + i);
  }
  for (std::size_t i = 0; i < JournalRecord::kTelemetryWords; ++i) {
    record.telemetry[i] = 0x7E1E'0000'0000ull ^ (shard * 977 + i);
  }
  return record;
}

bool same_record(const JournalRecord& a, const JournalRecord& b) {
  bool same = a.shard_index == b.shard_index;
  for (std::size_t i = 0; i < JournalRecord::kStatsWords; ++i) {
    same = same && a.stats[i] == b.stats[i];
  }
  for (std::size_t i = 0; i < JournalRecord::kTelemetryWords; ++i) {
    same = same && a.telemetry[i] == b.telemetry[i];
  }
  return same;
}

/// A file in the test's working directory, removed on scope exit.
class ScopedPath {
 public:
  explicit ScopedPath(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
  }
  ~ScopedPath() { std::remove(path_.c_str()); }
  ScopedPath(const ScopedPath&) = delete;
  ScopedPath& operator=(const ScopedPath&) = delete;
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct Seed {
  std::string name;
  std::string bytes;
};

/// The journal bytes after appending the records of `shards`, in order.
std::string written_journal(const std::vector<std::uint64_t>& shards) {
  const ScopedPath path("test_journal_fuzz_corpus.journal");
  {
    CampaignJournal journal(path.str(), kFingerprint, kSeed, CampaignJournal::Mode::Truncate);
    journal.bind_plan(kTotal, kShardSize, kShardCount);
    for (const std::uint64_t shard : shards) {
      journal.append(record_of(shard));
    }
  }
  return read_bytes(path.str());
}

std::vector<Seed> seed_corpus() {
  std::vector<Seed> corpus;
  // A journal writes nothing before its first append, so the 0-record
  // journal is the header that append writes ahead of its record.
  const std::string one = written_journal({4});
  const std::string three = written_journal({6, 0, 3});
  const std::size_t record = (three.size() - one.size()) / 2;
  const std::size_t header = one.size() - record;
  corpus.push_back({"0 records", one.substr(0, header)});
  corpus.push_back({"1 record", one});
  corpus.push_back({"3 records", three});
  corpus.push_back({"8 records", written_journal({7, 2, 5, 0, 1, 6, 3, 4})});
  // Two whole records and half of the third: a torn append.
  corpus.push_back({"3 records, torn tail", three.substr(0, header + 2 * record + record / 2)});
  return corpus;
}

/// One to four stacked mutations of `bytes`; splices copy a span of `donor`
/// (up to about two records, so whole records can move between journals).
std::string mutate(std::string bytes, const std::string& donor, Rng& rng) {
  const std::size_t steps = 1 + rng.next_below(4);
  for (std::size_t step = 0; step < steps; ++step) {
    const std::size_t at = rng.next_below(bytes.size() + 1);
    switch (rng.next_below(4)) {
      case 0:  // delete
        bytes.erase(at, 1 + rng.next_below(8));
        break;
      case 1: {  // insert
        std::string fragment(1 + rng.next_below(8), '\0');
        for (char& byte : fragment) {
          byte = static_cast<char>(rng.next_below(256));
        }
        bytes.insert(at, fragment);
        break;
      }
      case 2:  // replace
        if (at < bytes.size()) {
          bytes[at] = static_cast<char>(rng.next_below(256));
        }
        break;
      default: {  // splice
        const std::size_t from = rng.next_below(donor.size() + 1);
        bytes.insert(at, donor.substr(from, 1 + rng.next_below(256)));
        break;
      }
    }
  }
  return bytes;
}

/// What one resume of a mutant journal produced.
struct Outcome {
  bool error = false;
  std::size_t found = 0;
  std::size_t dropped = 0;
  std::string foreign;  ///< a record that differs from the appended one
};

/// Resume `path`, bind the corpus plan and look up every shard. Throws only
/// what the library throws; the caller sorts it.
Outcome resume(const std::string& path) {
  Outcome outcome;
  try {
    CampaignJournal journal(path, kFingerprint, kSeed, CampaignJournal::Mode::Resume);
    journal.bind_plan(kTotal, kShardSize, kShardCount);
    outcome.dropped = journal.dropped_count();
    for (std::uint64_t shard = 0; shard < kShardCount; ++shard) {
      const std::optional<JournalRecord> record = journal.find(shard);
      if (!record) {
        continue;
      }
      ++outcome.found;
      if (!same_record(*record, record_of(shard))) {
        outcome.foreign = "shard " + std::to_string(shard);
      }
    }
  } catch (const Error&) {
    outcome.error = true;
  }
  return outcome;
}

TEST(JournalFuzz, SeedCorpusResumesAsWritten) {
  const std::vector<Seed> corpus = seed_corpus();
  const ScopedPath path("test_journal_fuzz_seed.journal");
  const std::size_t expected_found[] = {0, 1, 3, 8, 2};
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    write_bytes(path.str(), corpus[i].bytes);
    const Outcome outcome = resume(path.str());
    EXPECT_FALSE(outcome.error) << corpus[i].name;
    EXPECT_EQ(outcome.found, expected_found[i]) << corpus[i].name;
    EXPECT_EQ(outcome.dropped, i == 4 ? 1u : 0u) << corpus[i].name;
    EXPECT_EQ(outcome.foreign, "") << corpus[i].name;
  }
}

TEST(JournalFuzz, MutantsResumeOrThrowRetscanError) {
  const std::vector<Seed> corpus = seed_corpus();
  const ScopedPath path("test_journal_fuzz_mutant.journal");
  const std::size_t seeds = fuzz_seed_count();
  const std::size_t mutants_per_seed = 256;
  std::size_t with_records = 0;  // mutants that still resumed some shard
  std::size_t lossy = 0;         // mutants whose loader dropped or lost records

  for (std::size_t round = 0; round < seeds; ++round) {
    for (std::size_t m = 0; m < mutants_per_seed; ++m) {
      Rng rng(Rng::derive_stream(0x10a1'0000 + round, m));
      const Seed& base = corpus[rng.next_below(corpus.size())];
      const Seed& donor = corpus[rng.next_below(corpus.size())];
      const std::string mutant = mutate(base.bytes, donor.bytes, rng);
      write_bytes(path.str(), mutant);
      try {
        const Outcome outcome = resume(path.str());
        ASSERT_EQ(outcome.foreign, "")
            << "a resumed record differs from the appended one (round " << round
            << ", mutant " << m << " of " << base.name << ")";
        with_records += outcome.found != 0;
        lossy += outcome.dropped != 0 || outcome.found == 0;
      } catch (const std::exception& error) {
        FAIL() << "non-retscan exception (round " << round << ", mutant " << m << " of "
               << base.name << "): " << error.what();
      } catch (...) {
        FAIL() << "non-standard exception (round " << round << ", mutant " << m << " of "
               << base.name << ")";
      }
    }
  }
  // Not vacuous at any seed budget: some mutants keep records, some lose them.
  EXPECT_GT(with_records, 0u);
  EXPECT_GT(lossy, 0u);
  RecordProperty("fuzz_cases", static_cast<int>(seeds * mutants_per_seed));
}

}  // namespace
}  // namespace retscan
