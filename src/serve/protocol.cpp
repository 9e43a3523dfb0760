#include "serve/protocol.hpp"

#include <cstdlib>
#include <ostream>

#include "util/fnv.hpp"

namespace retscan::serve {

std::string default_socket_path() {
  const char* env = std::getenv("RETSCAN_SOCKET");
  if (env != nullptr && *env != '\0') {
    return env;
  }
  return "retscan.sock";
}

const char* to_string(JobState state) {
  switch (state) {
    case JobState::Queued:    return "queued";
    case JobState::Running:   return "running";
    case JobState::Done:      return "done";
    case JobState::Failed:    return "failed";
    case JobState::Cancelled: return "cancelled";
    case JobState::Timeout:   return "timeout";
  }
  return "?";
}

bool from_string(std::string_view text, JobState& out) {
  if (text == "queued")    { out = JobState::Queued;    return true; }
  if (text == "running")   { out = JobState::Running;   return true; }
  if (text == "done")      { out = JobState::Done;      return true; }
  if (text == "failed")    { out = JobState::Failed;    return true; }
  if (text == "cancelled") { out = JobState::Cancelled; return true; }
  if (text == "timeout")   { out = JobState::Timeout;   return true; }
  return false;
}

bool is_terminal(JobState state) {
  return state != JobState::Queued && state != JobState::Running;
}

ResultSummary summarize(const CampaignResult& result, const CampaignSpec& spec) {
  ResultSummary s;
  s.kind = to_string(result.kind);
  s.schedule = to_string(result.schedule);
  s.status = to_string(result.status);
  s.threads = result.threads;
  s.shard_count = result.shard_count;
  s.shards_completed = result.shards_completed;
  s.shards_resumed = result.shards_resumed;
  s.seconds = result.seconds;
  s.checkpoint = spec.checkpoint;
  s.passed = result.passed();

  s.sequences = result.validation.sequences;
  s.errors_injected = result.validation.errors_injected;
  s.sequences_with_errors = result.validation.sequences_with_errors;
  s.detected = result.validation.detected;
  s.corrected = result.validation.corrected;
  s.flagged_uncorrectable = result.validation.flagged_uncorrectable;
  s.comparator_mismatches = result.validation.comparator_mismatches;
  s.silent_corruptions = result.validation.silent_corruptions;

  s.atpg_patterns = result.atpg.patterns.size();
  s.atpg_total_faults = result.atpg.total_faults;
  s.atpg_detected_random = result.atpg.detected_random;
  s.atpg_detected_podem = result.atpg.detected_podem;
  s.atpg_untestable = result.atpg.untestable;
  s.atpg_aborted = result.atpg.aborted;
  s.faults_total = result.faults.total_faults;
  s.faults_detected = result.faults.detected;
  s.scan_patterns_applied = result.scan_test.patterns_applied;
  s.scan_mismatches = result.scan_test.mismatches;

  s.event_sweeps = result.activity.event_sweeps;
  s.full_sweeps = result.activity.full_sweeps;
  s.full_sweep_fallbacks = result.activity.full_sweep_fallbacks;
  s.event_instrs = result.activity.event_instrs;
  s.sweep_instrs = result.activity.sweep_instrs;
  s.instr_capacity = result.activity.instr_capacity;
  return s;
}

std::uint64_t summary_digest(const ResultSummary& s) {
  Fnv1a digest;
  digest.add_text(s.kind);
  digest.add_text(s.schedule);
  digest.add_text(s.status);
  digest.add(s.passed ? 1 : 0);
  digest.add(s.shard_count);
  digest.add(s.shards_completed);
  digest.add(s.sequences);
  digest.add(s.errors_injected);
  digest.add(s.sequences_with_errors);
  digest.add(s.detected);
  digest.add(s.corrected);
  digest.add(s.flagged_uncorrectable);
  digest.add(s.comparator_mismatches);
  digest.add(s.silent_corruptions);
  digest.add(s.atpg_patterns);
  digest.add(s.atpg_total_faults);
  digest.add(s.atpg_detected_random);
  digest.add(s.atpg_detected_podem);
  digest.add(s.atpg_untestable);
  digest.add(s.atpg_aborted);
  digest.add(s.faults_total);
  digest.add(s.faults_detected);
  digest.add(s.scan_patterns_applied);
  digest.add(s.scan_mismatches);
  digest.add(s.event_sweeps);
  digest.add(s.full_sweeps);
  digest.add(s.full_sweep_fallbacks);
  digest.add(s.event_instrs);
  digest.add(s.sweep_instrs);
  digest.add(s.instr_capacity);
  return digest.hash;
}

Json to_json(const ResultSummary& s) {
  Json json = Json::Object{};
  json.set("kind", s.kind)
      .set("schedule", s.schedule)
      .set("status", s.status)
      .set("threads", s.threads)
      .set("shard_count", s.shard_count)
      .set("shards_completed", s.shards_completed)
      .set("shards_resumed", s.shards_resumed)
      .set("seconds", s.seconds)
      .set("checkpoint", s.checkpoint)
      .set("passed", s.passed)
      .set("sequences", s.sequences)
      .set("errors_injected", s.errors_injected)
      .set("sequences_with_errors", s.sequences_with_errors)
      .set("detected", s.detected)
      .set("corrected", s.corrected)
      .set("flagged_uncorrectable", s.flagged_uncorrectable)
      .set("comparator_mismatches", s.comparator_mismatches)
      .set("silent_corruptions", s.silent_corruptions)
      .set("atpg_patterns", s.atpg_patterns)
      .set("atpg_total_faults", s.atpg_total_faults)
      .set("atpg_detected_random", s.atpg_detected_random)
      .set("atpg_detected_podem", s.atpg_detected_podem)
      .set("atpg_untestable", s.atpg_untestable)
      .set("atpg_aborted", s.atpg_aborted)
      .set("faults_total", s.faults_total)
      .set("faults_detected", s.faults_detected)
      .set("scan_patterns_applied", s.scan_patterns_applied)
      .set("scan_mismatches", s.scan_mismatches)
      .set("event_sweeps", s.event_sweeps)
      .set("full_sweeps", s.full_sweeps)
      .set("full_sweep_fallbacks", s.full_sweep_fallbacks)
      .set("event_instrs", s.event_instrs)
      .set("sweep_instrs", s.sweep_instrs)
      .set("instr_capacity", s.instr_capacity)
      .set("digest", summary_digest(s));
  return json;
}

ResultSummary summary_from_json(const Json& json) {
  ResultSummary s;
  s.kind = json.at("kind").as_string();
  s.schedule = json.at("schedule").as_string();
  s.status = json.at("status").as_string();
  s.threads = json.at("threads").as_u64();
  s.shard_count = json.at("shard_count").as_u64();
  s.shards_completed = json.at("shards_completed").as_u64();
  s.shards_resumed = json.at("shards_resumed").as_u64();
  s.seconds = json.at("seconds").as_double();
  s.checkpoint = json.at("checkpoint").as_string();
  s.passed = json.at("passed").as_bool();
  s.sequences = json.at("sequences").as_u64();
  s.errors_injected = json.at("errors_injected").as_u64();
  s.sequences_with_errors = json.at("sequences_with_errors").as_u64();
  s.detected = json.at("detected").as_u64();
  s.corrected = json.at("corrected").as_u64();
  s.flagged_uncorrectable = json.at("flagged_uncorrectable").as_u64();
  s.comparator_mismatches = json.at("comparator_mismatches").as_u64();
  s.silent_corruptions = json.at("silent_corruptions").as_u64();
  s.atpg_patterns = json.at("atpg_patterns").as_u64();
  s.atpg_total_faults = json.at("atpg_total_faults").as_u64();
  s.atpg_detected_random = json.at("atpg_detected_random").as_u64();
  s.atpg_detected_podem = json.at("atpg_detected_podem").as_u64();
  s.atpg_untestable = json.at("atpg_untestable").as_u64();
  s.atpg_aborted = json.at("atpg_aborted").as_u64();
  s.faults_total = json.at("faults_total").as_u64();
  s.faults_detected = json.at("faults_detected").as_u64();
  s.scan_patterns_applied = json.at("scan_patterns_applied").as_u64();
  s.scan_mismatches = json.at("scan_mismatches").as_u64();
  s.event_sweeps = json.at("event_sweeps").as_u64();
  s.full_sweeps = json.at("full_sweeps").as_u64();
  s.full_sweep_fallbacks = json.at("full_sweep_fallbacks").as_u64();
  s.event_instrs = json.at("event_instrs").as_u64();
  s.sweep_instrs = json.at("sweep_instrs").as_u64();
  s.instr_capacity = json.at("instr_capacity").as_u64();
  // The shipped digest is advisory (recomputable); verify when present so
  // a corrupted relay is caught at the protocol layer.
  if (const Json* digest = json.find("digest")) {
    if (digest->as_u64() != summary_digest(s)) {
      throw Error("result summary digest mismatch (corrupt relay?)");
    }
  }
  return s;
}

namespace {

double ratio(std::uint64_t numerator, std::uint64_t denominator) {
  return denominator == 0 ? 1.0
                          : static_cast<double>(numerator) /
                                static_cast<double>(denominator);
}

/// ATPG coverage in percent, over testable faults (AtpgResult::coverage).
double atpg_coverage(const ResultSummary& s) {
  return 100.0 * ratio(s.atpg_detected_random + s.atpg_detected_podem,
                       s.atpg_total_faults - s.atpg_untestable);
}

/// What atpg_coverage leaves out of its denominator (untestable faults) and
/// what it counts as undetected without a verdict (PODEM aborts).
void print_atpg_exclusions(std::ostream& out, const ResultSummary& s) {
  out << s.atpg_untestable << " untestable excluded, " << s.atpg_aborted << " aborted";
}

/// "X% (d/t faults)" line ending of a fault-model coverage measurement.
void print_fault_sim_coverage(std::ostream& out, const ResultSummary& s) {
  out << 100.0 * ratio(s.faults_detected, s.faults_total) << "% (" << s.faults_detected
      << "/" << s.faults_total << " faults)\n";
}

}  // namespace

void print_summary(std::ostream& out, const ResultSummary& s) {
  out << "ran:      " << s.kind << ", " << s.threads << " threads x " << s.shard_count
      << " shards, " << s.seconds << " s\n";
  if (s.shards_resumed != 0) {
    out << "resumed:  " << s.shards_resumed << " of " << s.shard_count
        << " shards merged from " << s.checkpoint << "\n";
  }
  if (s.status != "complete") {
    // Interrupted: the statistics below are partial (completed shards
    // only) — still exact for those shards, and checkpointed if armed.
    out << "status:   " << s.status << " after " << s.shards_completed
        << " of " << s.shard_count << " shards";
    if (!s.checkpoint.empty()) {
      out << "; journal " << s.checkpoint << " holds the completed work "
          << "(rerun with --resume)";
    }
    out << "\n";
  }
  if (s.kind == "validation") {
    out << "result:   " << s.sequences << " sequences, "
        << s.sequences_with_errors << " with errors, detection "
        << 100.0 * ratio(s.detected, s.sequences_with_errors)
        << "%, correction "
        << 100.0 * ratio(s.corrected, s.sequences_with_errors) << "%\n"
        << "          flagged-uncorrectable " << s.flagged_uncorrectable
        << ", silent corruptions " << s.silent_corruptions << "\n";
    if (s.event_sweeps + s.full_sweeps != 0) {
      const double dirty =
          s.instr_capacity == 0
              ? 0.0
              : static_cast<double>(s.event_instrs + s.sweep_instrs) /
                    static_cast<double>(s.instr_capacity);
      out << "schedule: " << s.schedule << " — " << s.event_sweeps
          << " event settles, " << s.full_sweeps << " full sweeps ("
          << s.full_sweep_fallbacks << " fallbacks), avg dirty "
          << "fraction " << dirty << "\n";
    }
  } else if (s.kind == "fault-coverage") {
    out << "result:   " << s.atpg_patterns << " patterns, coverage " << atpg_coverage(s)
        << "% (" << s.faults_detected << "/" << s.faults_total << " faults via fault-sim; ";
    print_atpg_exclusions(out, s);
    out << ")\n";
  } else if (s.kind == "transition-delay") {
    out << "result:   " << s.atpg_patterns << " patterns ("
        << (s.atpg_patterns == 0 ? 0 : s.atpg_patterns - 1)
        << " launch/capture pairs), transition coverage ";
    print_fault_sim_coverage(out, s);
  } else if (s.kind == "bridging") {
    out << "result:   " << s.atpg_patterns << " patterns, bridging coverage ";
    print_fault_sim_coverage(out, s);
  } else if (s.kind == "sequential-coverage") {
    out << "result:   sequential coverage ";
    print_fault_sim_coverage(out, s);
  } else {
    out << "result:   " << s.scan_patterns_applied << " patterns delivered, "
        << s.scan_mismatches << " mismatches (coverage " << atpg_coverage(s) << "%; ";
    print_atpg_exclusions(out, s);
    out << ")\n";
  }
  out << "verdict:  " << (s.passed ? "PASS" : "FAIL") << "\n";
}

Json to_json(const SubmitOverrides& overrides) {
  Json json = Json::Object{};
  if (overrides.seed)      json.set("seed", *overrides.seed);
  if (overrides.threads)   json.set("threads", *overrides.threads);
  if (overrides.sequences) json.set("sequences", *overrides.sequences);
  if (overrides.checkpoint) json.set("checkpoint", *overrides.checkpoint);
  if (overrides.resume)    json.set("resume", true);
  if (overrides.deadline_ms) json.set("deadline_ms", *overrides.deadline_ms);
  return json;
}

SubmitOverrides overrides_from_json(const Json& json) {
  SubmitOverrides overrides;
  for (const auto& [key, v] : json.as_object()) {
    // clang-format off
    if (key == "seed")             overrides.seed = v.as_u64();
    else if (key == "threads")     overrides.threads = v.as_u64();
    else if (key == "sequences")   overrides.sequences = v.as_u64();
    else if (key == "checkpoint")  overrides.checkpoint = v.as_string();
    else if (key == "resume")      overrides.resume = v.as_bool();
    else if (key == "deadline_ms") overrides.deadline_ms = v.as_u64();
    else throw Error("unknown override '" + key + "'");
    // clang-format on
  }
  return overrides;
}

void apply_overrides(SpecFile& file, const SubmitOverrides& overrides) {
  if (overrides.seed) {
    file.campaign.seed = *overrides.seed;
  }
  if (overrides.threads) {
    if (*overrides.threads > 4096) {
      throw Error("--threads = " + std::to_string(*overrides.threads) +
                  " is out of range (max 4096)");
    }
    file.campaign.threads = static_cast<unsigned>(*overrides.threads);
  }
  if (overrides.sequences) {
    file.campaign.sequences = *overrides.sequences;
  }
  if (overrides.checkpoint) {
    file.campaign.checkpoint = *overrides.checkpoint;
  }
  if (overrides.resume) {
    file.campaign.resume = true;
  }
  if (overrides.deadline_ms) {
    file.campaign.deadline_ms = *overrides.deadline_ms;
  }
}

int exit_code_for(JobState state, const ResultSummary* summary) {
  switch (state) {
    case JobState::Done:
      return summary != nullptr && summary->passed ? 0 : 1;
    case JobState::Cancelled:
      return 130;
    case JobState::Timeout:
      return 3;
    case JobState::Failed:
      return 2;
    case JobState::Queued:
    case JobState::Running:
      break;
  }
  return 2;
}

}  // namespace retscan::serve
