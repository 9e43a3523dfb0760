// serve-mix: a closed loop of jobs against an in-process serve::Server on a
// socket inside the checkout, with an artifact cache directory. nproc
// clients each submit a job and block on its result before sending the
// next. The mix holds structural validation (32x2 slice), short behavioral
// validation, an import fault-coverage job and a scan-test job; specs repeat,
// so the session cache both hits and misses. It is the only workload where
// campaigns share the pool through the FairScheduler and setup is amortised
// by the caches.
//
// Each pass starts a fresh daemon over an empty cache directory, so every
// pass sees the same cold-then-warm history.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "retscan/serve.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace retscan;
using serve::Json;

constexpr std::size_t kJobsPerPass = 48;
constexpr std::size_t kSeedsPerSpec = 3;

struct JobSpec {
  std::string name;
  std::string path;
  bool structural = false;
};

const char* kSlice =
    "fifo.depth = 32\nfifo.width = 2\n"
    "protection.kind = hamming+crc\nprotection.hamming_r = 3\n"
    "protection.chain_count = 8\nprotection.test_width = 4\n";

std::vector<JobSpec> write_specs(const Context& ctx, const std::string& dir) {
  struct Text {
    const char* name;
    std::string body;
    bool structural;
  };
  const std::vector<Text> texts = {
      {"structural",
       std::string(kSlice) +
           "campaign.kind = validation\ncampaign.tier = structural\n"
           "campaign.sequences = 4096\ncampaign.mode = single-random\n",
       true},
      {"behavioral",
       "fifo.depth = 32\nfifo.width = 32\n"
       "protection.kind = hamming+crc\nprotection.hamming_r = 3\n"
       "protection.chain_count = 80\n"
       "campaign.kind = validation\ncampaign.sequences = 512\n"
       "campaign.mode = single-random\n",
       false},
      {"import",
       "netlist = " + ctx.root + "/bench/circuits/ctrl344.v\n"
       "protection.kind = hamming+crc\nprotection.hamming_r = 3\n"
       "protection.chain_count = 4\nprotection.test_width = 4\n"
       "campaign.kind = fault-coverage\ncampaign.atpg.random_patterns = 256\n"
       "campaign.atpg.max_backtracks = 50\n",
       false},
      // PODEM off: the podem-atpg workload covers it, and a 1 s PODEM job
      // would turn the mix into a PODEM benchmark.
      {"scan-test",
       std::string(kSlice) +
           "campaign.kind = scan-test\ncampaign.atpg.random_patterns = 2048\n"
           "campaign.atpg.run_podem = false\n",
       false},
  };
  std::vector<JobSpec> out;
  for (const Text& text : texts) {
    const std::string path = dir + "/" + text.name + ".spec";
    std::ofstream file(path);
    file << text.body;
    if (!file) {
      throw Error("cannot write job spec '" + path + "'");
    }
    out.push_back({text.name, path, text.structural});
  }
  return out;
}

/// One submission of the loop: which spec, which seed, its operation name.
struct Job {
  std::size_t spec = 0;
  std::uint64_t seed = 0;
  std::string op;
};

/// The jobs of pass `pass`: an equal share of each spec, each with
/// kSeedsPerSpec seeds. Every pass submits the same
/// jobs; the order is seeded per pass, so a run's latency tail averages over
/// many orders instead of replaying one.
std::vector<Job> job_list(const Context& ctx, const std::vector<JobSpec>& specs,
                          std::uint64_t pass) {
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < kJobsPerPass; ++i) {
    Job job;
    job.spec = i % specs.size();
    const std::size_t k = (i / specs.size()) % kSeedsPerSpec;
    job.seed = derive_seed(ctx.seed, 100 + job.spec * kSeedsPerSpec + k);
    job.op = specs[job.spec].name + "/s" + std::to_string(k);
    jobs.push_back(job);
  }
  Rng rng(derive_seed(ctx.seed, 0x5E7 + pass));
  for (std::size_t i = jobs.size(); i > 1; --i) {
    std::swap(jobs[i - 1], jobs[rng.next_below(i)]);
  }
  return jobs;
}

Json submit_request(const JobSpec& spec, std::uint64_t seed) {
  serve::SubmitOverrides overrides;
  overrides.seed = seed;
  Json request = Json::Object{};
  request.set("cmd", "submit").set("spec", spec.path).set("overrides", to_json(overrides));
  return request;
}

Json command(const char* cmd) {
  Json request = Json::Object{};
  request.set("cmd", cmd);
  return request;
}

struct Outcome {
  bool ok = false;
  std::string error;
  serve::JobRecord record;
  double latency = 0.0;
};

/// Aggregates over every pass, for the per-layer metrics.
struct ServeCounters {
  std::vector<double> cold_setup, warm_setup;
  double setup = 0.0, run = 0.0, latency = 0.0;
  double session_hits = 0.0, session_lookups = 0.0;
  double artifact_hits = 0.0, artifact_lookups = 0.0;
  double structural_sequences = 0.0, structural_run = 0.0;
  double dirty_instrs = 0.0, instr_capacity = 0.0;
};

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

}  // namespace

std::vector<Pass> run_serve_mix(Context& ctx) {
  namespace fs = std::filesystem;
  const std::string dir = ctx.scratch + "/serve";
  fs::create_directories(dir);
  const std::vector<JobSpec> specs = write_specs(ctx, dir);
  const std::string socket = ctx.scratch + "/serve.sock";
  const std::string cache = dir + "/artifacts";
  Tracer& tracer = *ctx.tracer;
  ServeCounters counters;
  ctx.overlapping_ops = true;
  std::uint64_t pass_index = 0;

  std::vector<Pass> passes = run_passes(ctx, [&] {
    Pass pass;
    const std::vector<Job> jobs = job_list(ctx, specs, pass_index++);
    fs::remove_all(cache);
    serve::ServeOptions options;
    options.cache_dir = cache;
    options.threads = ctx.threads;

    Tracer::Span start_span(tracer, "serve.start");
    auto server = std::make_unique<serve::Server>(socket, options);
    std::thread daemon([&server] { server->run(); });
    start_span.stop();

    std::vector<Outcome> outcomes(jobs.size());
    std::atomic<std::size_t> next{0};
    const double loop_start = wall_now();
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < ctx.threads; ++c) {
      clients.emplace_back([&] {
        try {
          serve::Client client(socket);
          for (std::size_t i = next++; i < jobs.size(); i = next++) {
            Outcome& outcome = outcomes[i];
            try {
              Tracer::Span span(tracer, "serve.job");
              const Json submitted =
                  client.request(submit_request(specs[jobs[i].spec], jobs[i].seed));
              Json result = command("result");
              result.set("id", submitted.at("id").as_u64());
              outcome.record = serve::job_from_json(client.request(result).at("job"));
              outcome.latency = span.stop();
              outcome.ok = true;
            } catch (const std::exception& error) {
              outcome.error = error.what();
            }
          }
        } catch (const std::exception& error) {
          for (std::size_t i = next++; i < jobs.size(); i = next++) {
            outcomes[i].error = error.what();
          }
        }
      });
    }
    for (std::thread& client : clients) {
      client.join();
    }
    pass.work_seconds = wall_now() - loop_start;

    Json stats;
    {
      Tracer::Span span(tracer, "serve.stats");
      stats = serve::Client(socket).request(command("stats"));
    }

    // Drain outside the measurement: the daemon notices shutdown on its
    // next 200 ms accept poll.
    const double teardown_start = wall_now();
    {
      Tracer::Span span(tracer, "serve.stop");
      serve::Client(socket).request(command("shutdown"));
      daemon.join();
      server.reset();
      install_artifact_store(nullptr);  // JobManager installed it process-wide
    }
    pass.teardown = wall_now() - teardown_start;

    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const Outcome& outcome = outcomes[i];
      const serve::JobRecord& record = outcome.record;
      if (!outcome.ok) {
        ctx.ledger->fail(jobs[i].op, outcome.error);
        continue;
      }
      const bool done = record.state == serve::JobState::Done && record.summary &&
                        record.summary->passed;
      ctx.ledger->finish(jobs[i].op, done,
                         record.summary ? serve::summary_digest(*record.summary) : 0);
      if (!done) {
        continue;
      }
      pass.work += 1.0;
      pass.setup += record.setup_seconds;
      pass.ops.emplace_back(jobs[i].op, outcome.latency);
      (record.session_reused ? counters.warm_setup : counters.cold_setup)
          .push_back(record.setup_seconds);
      counters.setup += record.setup_seconds;
      counters.run += record.run_seconds;
      counters.latency += outcome.latency;
      if (specs[jobs[i].spec].structural) {
        const serve::ResultSummary& summary = *record.summary;
        counters.structural_sequences += static_cast<double>(summary.sequences);
        counters.structural_run += record.run_seconds;
        counters.dirty_instrs += static_cast<double>(summary.event_instrs + summary.sweep_instrs);
        counters.instr_capacity += static_cast<double>(summary.instr_capacity);
      }
    }
    const Json& sessions = stats.at("sessions");
    const Json& artifacts = stats.at("artifacts");
    counters.session_hits += static_cast<double>(sessions.at("hits").as_u64());
    counters.session_lookups += static_cast<double>(sessions.at("hits").as_u64() +
                                                    sessions.at("misses").as_u64());
    counters.artifact_hits += static_cast<double>(artifacts.at("hits").as_u64());
    counters.artifact_lookups += static_cast<double>(artifacts.at("hits").as_u64() +
                                                     artifacts.at("misses").as_u64());
    return pass;
  });

  // Oracle: every job's digest equals a one-shot run() of the same spec and
  // seed, with no daemon, pool sharing or caches involved.
  const std::map<std::string, std::uint64_t> digests = ctx.ledger->digests();
  std::set<std::string> checked;
  for (const Job& job : job_list(ctx, specs, 0)) {
    const auto seen = digests.find(job.op);
    if (seen == digests.end() || !checked.insert(job.op).second) {
      continue;
    }
    serve::SubmitOverrides overrides;
    overrides.seed = job.seed;
    SpecFile file = load_spec_file(specs[job.spec].path);
    serve::apply_overrides(file, overrides);
    Session session = make_session(file);
    const CampaignResult result = run(session, file.campaign);
    ctx.ledger->oracle(job.op + ": daemon digest differs from a one-shot run()",
                       serve::summary_digest(serve::summarize(result, file.campaign)) ==
                           seen->second);
  }

  const auto ratio = [](const std::vector<double>& num, const std::vector<double>& den) {
    return num.empty() || den.empty() || median(den) <= 0.0 ? 0.0 : median(num) / median(den);
  };
  ctx.layer["serve.warm_setup_speedup"] = ratio(counters.cold_setup, counters.warm_setup);
  ctx.layer["serve.setup_share"] = share(counters.setup, counters.latency);
  ctx.layer["serve.run_share"] = share(counters.run, counters.latency);
  ctx.layer["serve.wait_share"] =
      share(counters.latency - counters.setup - counters.run, counters.latency);
  ctx.layer["serve.session_hit_rate"] = share(counters.session_hits, counters.session_lookups);
  ctx.layer["serve.artifact_hit_rate"] =
      share(counters.artifact_hits, counters.artifact_lookups);
  ctx.layer["sim.structural_seq_per_s"] =
      share(counters.structural_sequences, counters.structural_run);
  ctx.layer["sim.avg_dirty_fraction"] = share(counters.dirty_instrs, counters.instr_capacity);
  return passes;
}

}  // namespace perfbench
