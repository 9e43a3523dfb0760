// Mutation fuzzing of the serve daemon's line-JSON readers, the parsers of
// untrusted bytes behind `retscan serve` (every request line) and the
// client commands (every response and event line). The seed corpus is built
// in-repo from the wire encoders: a job record with a result summary, a full
// set of submit overrides, one request of each shape the server dispatches
// and a progress event. Each mutant (byte deletes, inserts, replacements and
// splices, stacked) goes through Json::parse; a value that parses must dump
// to text that reparses to the same dump, and the record readers
// (overrides_from_json, summary_from_json, job_from_json), applied to the
// value and to each of its members, must return or throw retscan::Error.
// Any other exception fails the test, and a sanitizer build (CI's
// differential-fuzz job) aborts on memory or UB faults. Seeds are
// deterministic; set RETSCAN_FUZZ_SEEDS to widen the sweep (CI runs 64,
// default 16).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "fuzz_seeds.hpp"
#include "retscan/serve.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace retscan::serve {
namespace {

struct Seed {
  std::string name;
  std::string text;
};

ResultSummary sample_summary() {
  ResultSummary s;
  s.kind = "validation";
  s.schedule = "sweep";
  s.status = "complete";
  s.threads = 4;
  s.shard_count = 5;
  s.shards_completed = 5;
  s.seconds = 0.015625;
  s.checkpoint = "runs/a \"quoted\"\tpath.journal";
  s.passed = true;
  s.sequences = 20000;
  s.errors_injected = 20000;
  s.sequences_with_errors = 20000;
  s.detected = 20000;
  s.corrected = 19873;
  s.flagged_uncorrectable = 127;
  s.atpg_total_faults = 18446744073709551615ull;  // exact u64 on the wire
  return s;
}

std::vector<Seed> seed_corpus() {
  std::vector<Seed> corpus;
  JobRecord record;
  record.id = 7;
  record.spec_path = "examples/validation.spec";
  record.state = JobState::Done;
  record.shards_done = 5;
  record.shard_count = 5;
  record.session_reused = true;
  record.setup_seconds = 0.00125;
  record.run_seconds = 1.5;
  record.summary = sample_summary();
  corpus.push_back({"job record", to_json(record).dump()});

  SubmitOverrides overrides;
  overrides.seed = 404;
  overrides.threads = 3;
  overrides.sequences = 500;
  overrides.checkpoint = "x.journal";
  overrides.resume = true;
  overrides.deadline_ms = 5000;
  corpus.push_back({"overrides", to_json(overrides).dump()});

  const auto request = [](const char* cmd) { return Json(Json::Object{}).set("cmd", cmd); };
  corpus.push_back({"ping", request("ping").dump()});
  corpus.push_back({"submit", request("submit")
                                  .set("spec", "examples/coverage.spec")
                                  .set("overrides", to_json(overrides))
                                  .set("wait", true)
                                  .dump()});
  for (const char* cmd : {"status", "result", "cancel"}) {
    corpus.push_back({cmd, request(cmd).set("id", 7).dump()});
  }
  for (const char* cmd : {"list", "stats", "shutdown"}) {
    corpus.push_back({cmd, request(cmd).dump()});
  }
  corpus.push_back({"progress event", Json(Json::Object{})
                                          .set("event", "progress")
                                          .set("id", 7)
                                          .set("state", "running")
                                          .set("shards_done", 2)
                                          .set("shard_count", 5)
                                          .dump()});
  return corpus;
}

/// Fragments an insert or a value replacement may splice in besides random
/// bytes, so mutants reach past the tokenizer into the number, string and
/// nesting paths and the record readers.
const std::string kDictionary[] = {
    "{", "}", "[", "]", "\"", ":", ",", " ", "\\", "\\u", "\\ud800", "\\udc00",
    "\\u0000", "null", "true", "false", "-", "-0", "0", "1", "0.5", "1e308", "1e309",
    "1e-400", "18446744073709551615", "18446744073709551616", "{}", "[]", "\"\"",
    "\"done\"", "\"bogus\"", "\"summary\"", "\"digest\"", "\"cmd\"", "\"overrides\"",
    "\"threads\"", std::string(70, '['),
};

std::string random_fragment(Rng& rng) {
  if (rng.next_bool(0.5)) {
    return kDictionary[rng.next_below(std::size(kDictionary))];
  }
  std::string bytes(1 + rng.next_below(4), '\0');
  for (char& byte : bytes) {
    byte = static_cast<char>(rng.next_below(256));
  }
  return bytes;
}

/// One to four stacked mutations of `text`; splices copy a span of `donor`.
std::string mutate(std::string text, const std::string& donor, Rng& rng) {
  const std::size_t steps = 1 + rng.next_below(4);
  for (std::size_t step = 0; step < steps; ++step) {
    const std::size_t at = rng.next_below(text.size() + 1);
    switch (rng.next_below(4)) {
      case 0:  // delete
        text.erase(at, 1 + rng.next_below(8));
        break;
      case 1:  // insert
        text.insert(at, random_fragment(rng));
        break;
      case 2: {  // replace one byte, or the value after the next ':'
        const std::size_t colon = text.find(':', at);
        if (rng.next_bool(0.5) && colon != std::string::npos) {
          const std::size_t end = std::min(text.find_first_of(",}", colon), text.size());
          text.replace(colon + 1, end - colon - 1,
                       kDictionary[rng.next_below(std::size(kDictionary))]);
        } else if (at < text.size()) {
          text[at] = static_cast<char>(rng.next_below(256));
        }
        break;
      }
      default: {  // splice
        const std::size_t from = rng.next_below(donor.size() + 1);
        text.insert(at, donor.substr(from, 1 + rng.next_below(48)));
        break;
      }
    }
  }
  return text;
}

/// Readers that accepted the value they were given.
struct Accepted {
  std::size_t overrides = 0;
  std::size_t summaries = 0;
  std::size_t jobs = 0;
};

/// Apply each record reader to `value` and to each member of an object
/// value (a submit's overrides, a record's summary). A retscan::Error is a
/// rejection; anything else propagates to the caller.
void read_records(const Json& value, Accepted& accepted) {
  std::vector<const Json*> candidates = {&value};
  if (value.is_object()) {
    for (const auto& [key, member] : value.as_object()) {
      candidates.push_back(&member);
    }
  }
  for (const Json* candidate : candidates) {
    try {
      overrides_from_json(*candidate);
      ++accepted.overrides;
    } catch (const Error&) {
    }
    try {
      summary_from_json(*candidate);
      ++accepted.summaries;
    } catch (const Error&) {
    }
    try {
      job_from_json(*candidate);
      ++accepted.jobs;
    } catch (const Error&) {
    }
  }
}

/// Parse one line as the daemon and the clients do. Returns false when the
/// parser rejected it; a parsed value's dump must reparse to the same dump.
bool exercise(const std::string& text, Accepted& accepted) {
  std::optional<Json> value;
  try {
    value.emplace(Json::parse(text));
  } catch (const Error&) {
    return false;
  }
  const std::string dumped = value->dump();
  EXPECT_EQ(Json::parse(dumped).dump(), dumped) << "--- line ---\n" << text;
  read_records(*value, accepted);
  return true;
}

TEST(JsonFuzz, SeedCorpusReadsBack) {
  const std::vector<Seed> corpus = seed_corpus();
  for (const Seed& seed : corpus) {
    Accepted accepted;
    EXPECT_TRUE(exercise(seed.text, accepted)) << seed.name;
  }
  // Each record reader accepts what its encoder wrote.
  const Json record = Json::parse(corpus[0].text);
  EXPECT_EQ(summary_digest(job_from_json(record).summary.value()),
            summary_digest(sample_summary()));
  EXPECT_EQ(summary_from_json(record.at("summary")).atpg_total_faults,
            18446744073709551615ull);
  EXPECT_EQ(overrides_from_json(Json::parse(corpus[1].text)).threads, 3u);
}

TEST(JsonFuzz, MutantsParseOrThrowRetscanError) {
  const std::vector<Seed> corpus = seed_corpus();
  const std::size_t seeds = fuzz_seed_count();
  const std::size_t mutants_per_seed = 256;
  std::size_t parse_errors = 0;
  std::size_t parsed = 0;
  Accepted accepted;

  for (std::size_t round = 0; round < seeds; ++round) {
    for (std::size_t m = 0; m < mutants_per_seed; ++m) {
      Rng rng(Rng::derive_stream(0x150a'0000 + round, m));
      const Seed& base = corpus[rng.next_below(corpus.size())];
      const Seed& donor = corpus[rng.next_below(corpus.size())];
      const std::string mutant = mutate(base.text, donor.text, rng);
      try {
        if (exercise(mutant, accepted)) {
          ++parsed;
        } else {
          ++parse_errors;
        }
      } catch (const std::exception& error) {
        FAIL() << "non-retscan exception (round " << round << ", mutant " << m << " of "
               << base.name << "): " << error.what() << "\n--- mutant ---\n"
               << mutant;
      } catch (...) {
        FAIL() << "non-standard exception (round " << round << ", mutant " << m << " of "
               << base.name << ")\n--- mutant ---\n"
               << mutant;
      }
      if (::testing::Test::HasFailure()) {
        FAIL() << "round " << round << ", mutant " << m << " of " << base.name;
      }
    }
  }
  // Not vacuous at any seed budget: some mutants fail to parse, some parse,
  // and some get through each record reader.
  EXPECT_GT(parse_errors, 0u);
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(accepted.overrides, 0u);
  EXPECT_GT(accepted.summaries, 0u);
  EXPECT_GT(accepted.jobs, 0u);
  RecordProperty("fuzz_cases", static_cast<int>(seeds * mutants_per_seed));
}

}  // namespace
}  // namespace retscan::serve
