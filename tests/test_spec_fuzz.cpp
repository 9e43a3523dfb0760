// Mutation fuzzing of the spec-file parser, the first reader of untrusted
// bytes behind `retscan run`, `retscan describe` and `retscan submit`. The
// seed corpus is the three shipped examples/*.spec files plus a line using
// the removed `campaign.backend` key. Each mutant (byte deletes, inserts,
// replacements and splices, stacked) goes through parse_spec_text; one that
// parses also goes through make_session and validate(). Every outcome must be
// success or retscan::Error — any other exception fails the test, and a
// sanitizer build (CI's differential-fuzz job) aborts on memory or UB faults.
//
// Mutants never reach design() or run(): protection synthesis allocates per
// flop, so a mutated geometry could ask for gigabytes. make_session is
// skipped when a mutation changed the `netlist =` path (it would import
// whatever file the mutant names). Seeds are deterministic; set
// RETSCAN_FUZZ_SEEDS to widen the sweep (CI runs 64, default 16).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz_seeds.hpp"
#include "retscan/campaign.hpp"
#include "retscan/session.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace retscan {
namespace {

/// examples/ sits beside bench/circuits in the source tree.
const std::filesystem::path kExamplesDir =
    std::filesystem::path(RETSCAN_CIRCUITS_DIR) / ".." / ".." / "examples";

struct Seed {
  std::string name;
  std::string text;
  std::string netlist;  ///< the unmutated `netlist =` value ("" for FIFO specs)
};

std::string netlist_of(const std::string& text) {
  try {
    return parse_spec_text(text).netlist_file;
  } catch (const Error&) {
    return "";
  }
}

std::vector<Seed> seed_corpus() {
  std::vector<Seed> corpus;
  for (const char* name : {"validation.spec", "coverage.spec", "external.spec"}) {
    std::ifstream in(kExamplesDir / name);
    std::ostringstream text;
    text << in.rdbuf();
    corpus.push_back({name, text.str(), netlist_of(text.str())});
  }
  corpus.push_back({"removed backend key", "campaign.backend = reference\n", ""});
  return corpus;
}

/// Fragments an insert may splice in besides random bytes, so mutants reach
/// past the tokenizer into the value parsers and validate().
constexpr const char* kDictionary[] = {
    "\n", "=", " = ", "#", "-", "0", "1", "64", "4096", "4097",
    "18446744073709551615", "18446744073709551616", "1e308", "nan", "true",
    "campaign.kind", "campaign.tier", "campaign.mode", "campaign.threads",
    "campaign.shard_size", "campaign.sequences", "campaign.cycles",
    "campaign.checkpoint", "campaign.resume", "campaign.deadline_ms",
    "protection.chain_count", "protection.hamming_r", "protection.secded",
    "protection.test_width", "fifo.depth", "fifo.width", "netlist", "validation", "scan-test", "sequential-coverage", "structural",
    "multiple-burst", "rush-model", "hamming+crc", "crc",
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
      case 2: {  // replace one byte, or the value after the next '='
        const std::size_t eq = text.find('=', at);
        if (rng.next_bool(0.5) && eq != std::string::npos) {
          const std::size_t end = std::min(text.find('\n', eq), text.size());
          text.replace(eq + 1, end - eq - 1,
                       std::string(" ") + kDictionary[rng.next_below(std::size(kDictionary))]);
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

/// Outcome of pushing one spec text through the untrusted-input path.
enum class Outcome { SpecError, SessionError, Invalid, Valid, SessionSkipped };

/// Parse, then (unless the netlist path moved) build the session and
/// validate. Throws only what the library throws; the caller sorts it.
Outcome exercise(const std::string& text, const std::string& seed_netlist) {
  SpecFile file;
  try {
    file = parse_spec_text(text);
  } catch (const Error&) {
    return Outcome::SpecError;
  }
  if (file.netlist_file != seed_netlist) {
    return Outcome::SessionSkipped;
  }
  if (!file.netlist_file.empty()) {
    // What load_spec_file does: resolve against the spec's directory.
    file.netlist_file = (kExamplesDir / file.netlist_file).string();
  }
  std::optional<Session> session;
  try {
    session.emplace(make_session(file));
  } catch (const Error&) {
    return Outcome::SessionError;
  }
  try {
    validate(file.campaign, *session);
  } catch (const Error&) {
    return Outcome::Invalid;
  }
  return Outcome::Valid;
}

TEST(SpecFuzz, SeedCorpusBehavesAsShipped) {
  const std::vector<Seed> corpus = seed_corpus();
  for (const Seed& seed : corpus) {
    ASSERT_FALSE(seed.text.empty()) << seed.name << " is missing under " << kExamplesDir;
  }
  // The shipped specs parse, build their session and validate as they stand.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(exercise(corpus[i].text, corpus[i].netlist), Outcome::Valid) << corpus[i].name;
  }
  EXPECT_EQ(exercise(corpus[3].text, corpus[3].netlist), Outcome::SpecError);
}

TEST(SpecFuzz, MutantsParseOrThrowRetscanError) {
  const std::vector<Seed> corpus = seed_corpus();
  const std::size_t seeds = fuzz_seed_count();
  const std::size_t mutants_per_seed = 256;
  std::size_t spec_errors = 0;
  std::size_t validated = 0;  // mutants that reached validate()

  for (std::size_t round = 0; round < seeds; ++round) {
    for (std::size_t m = 0; m < mutants_per_seed; ++m) {
      Rng rng(Rng::derive_stream(0x5bec'0000 + round, m));
      const Seed& base = corpus[rng.next_below(corpus.size())];
      const Seed& donor = corpus[rng.next_below(corpus.size())];
      const std::string mutant = mutate(base.text, donor.text, rng);
      try {
        const Outcome outcome = exercise(mutant, base.netlist);
        spec_errors += outcome == Outcome::SpecError;
        validated += outcome == Outcome::Valid || outcome == Outcome::Invalid;
      } catch (const std::exception& error) {
        FAIL() << "non-retscan exception (round " << round << ", mutant " << m << " of "
               << base.name << "): " << error.what() << "\n--- mutant ---\n"
               << mutant;
      } catch (...) {
        FAIL() << "non-standard exception (round " << round << ", mutant " << m << " of "
               << base.name << ")\n--- mutant ---\n"
               << mutant;
      }
    }
  }
  // Not vacuous at any seed budget: some mutants fail to parse, and some
  // get through to validate().
  EXPECT_GT(spec_errors, 0u);
  EXPECT_GT(validated, 0u);
  RecordProperty("fuzz_cases", static_cast<int>(seeds * mutants_per_seed));
}

}  // namespace
}  // namespace retscan
