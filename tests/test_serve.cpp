// Campaign service (src/serve/): the daemon's caches must be invisible in
// the results. A campaign submitted to a JobManager — cold session, cached
// session, 1 thread or 8 — must digest byte-identically to every other run
// of the same spec. Around that core equivalence claim: the wire JSON
// value, the session-cache key and LRU mechanics, job lifecycle (cancel
// both queued and running, failure isolation, overrides, drain), and a
// live Server end-to-end over a real Unix socket.

#include "retscan/serve.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "util/failpoint.hpp"

#ifndef RETSCAN_CIRCUITS_DIR
#define RETSCAN_CIRCUITS_DIR "bench/circuits"
#endif

namespace retscan::serve {
namespace {

std::string write_file(const std::string& name, const std::string& body) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / name;
  // Write-temp-then-rename: a daemon driver thread may be parsing the
  // previous incarnation of this path while the test writes the next one,
  // and a plain ofstream open truncates in place under the reader.
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp);
    out << body;
  }
  std::filesystem::rename(tmp, path);
  return path.string();
}

// Small specs, one per campaign kind — sized to finish in well under a
// second each so the equivalence matrix (3 kinds x 2 thread counts x
// cold/cached) stays cheap.
std::string validation_spec() {
  return write_file("serve_validation.spec",
                    "fifo.depth = 32\n"
                    "fifo.width = 4\n"
                    "protection.kind = hamming+crc\n"
                    "protection.hamming_r = 3\n"
                    "protection.chain_count = 4\n"
                    "campaign.kind = validation\n"
                    "campaign.seed = 11\n"
                    "campaign.sequences = 2000\n"
                    "campaign.mode = single-random\n");
}

std::string coverage_spec() {
  return write_file("serve_coverage.spec",
                    std::string("netlist = ") + RETSCAN_CIRCUITS_DIR +
                        "/ctrl344.v\n"
                        "campaign.kind = fault-coverage\n"
                        "campaign.seed = 7\n"
                        "campaign.atpg.random_patterns = 64\n"
                        "campaign.atpg.max_backtracks = 200\n");
}

std::string scan_spec() {
  return write_file("serve_scan.spec",
                    "fifo.depth = 32\n"
                    "fifo.width = 2\n"
                    "protection.kind = hamming+crc\n"
                    "protection.hamming_r = 3\n"
                    "protection.chain_count = 8\n"
                    "protection.test_width = 4\n"
                    "campaign.kind = scan-test\n"
                    "campaign.seed = 1\n"
                    "campaign.atpg.random_patterns = 64\n"
                    "campaign.atpg.max_backtracks = 200\n");
}

JobRecord run_one(JobManager& manager, const std::string& spec,
                  const SubmitOverrides& overrides = {}) {
  const std::uint64_t id = manager.submit(spec, overrides);
  const auto record = manager.wait(id);
  EXPECT_TRUE(record.has_value());
  return record.value_or(JobRecord{});
}

// ---------------------------------------------------------------------------
// Wire JSON value.

TEST(ServeJson, RoundTripsExactU64AndStructure) {
  Json obj = Json::Object{};
  obj.set("max", std::uint64_t{18446744073709551615ull})
      .set("rate", 0.25)
      .set("name", "c17 \"quoted\" \n line")
      .set("flag", true)
      .set("none", nullptr)
      .set("list", Json(Json::Array{Json(1), Json(2), Json(3)}));
  const Json back = Json::parse(obj.dump());
  EXPECT_EQ(back.at("max").as_u64(), 18446744073709551615ull);
  EXPECT_EQ(back.at("rate").as_double(), 0.25);
  EXPECT_EQ(back.at("name").as_string(), "c17 \"quoted\" \n line");
  EXPECT_TRUE(back.at("flag").as_bool());
  EXPECT_TRUE(back.at("none").is_null());
  EXPECT_EQ(back.at("list").as_array().size(), 3u);
  // Single-line framing: no raw newline may survive serialization.
  EXPECT_EQ(obj.dump().find('\n'), std::string::npos);
}

TEST(ServeJson, RejectsMalformedInputWithOffsets) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), Error);
  EXPECT_THROW(Json::parse("{\"a\":1} junk"), Error);
  EXPECT_THROW(Json::parse("\"\\ud800\""), Error);  // lone surrogate
  EXPECT_THROW(Json::parse("nul"), Error);
  EXPECT_THROW(Json(0.5).as_u64(), Error);  // exact integers only
  EXPECT_THROW(Json("x").as_u64(), Error);
  EXPECT_THROW(Json(true).at("missing"), Error);
}

TEST(ServeJson, NumbersFollowTheJsonGrammar) {
  for (const char* bad : {"+1", "01", "00012", "1.", ".5", "-.5", "+0.5e+2", "1e", "1e+",
                          "--1", "-", "-01", "1.e5", "[1,01]"}) {
    try {
      (void)Json::parse(bad);
      ADD_FAILURE() << "parsed '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("at byte "), std::string::npos)
          << bad << ": " << e.what();
    }
  }
  EXPECT_EQ(Json::parse("0").as_u64(), 0u);
  EXPECT_EQ(Json::parse("-0").as_double(), 0.0);
  EXPECT_EQ(Json::parse("0.5").as_double(), 0.5);
  EXPECT_EQ(Json::parse("1e5").as_double(), 1e5);
  EXPECT_EQ(Json::parse("1E-3").as_double(), 1e-3);
  EXPECT_EQ(Json::parse("-2.5e+1").as_double(), -25.0);
  EXPECT_EQ(Json::parse("18446744073709551615").as_u64(), 18446744073709551615ull);
  EXPECT_EQ(Json::parse("[0,10,-3]").as_array().size(), 3u);
}

// ---------------------------------------------------------------------------
// Session-cache key and LRU mechanics.

TEST(ServeSessionKey, HashesDesignShapingFieldsOnly) {
  SpecFile a;
  a.fifo = {8, 8};
  const std::uint64_t base = session_key(a);
  EXPECT_EQ(session_key(a), base);  // deterministic

  SpecFile b = a;
  b.campaign.seed = 999;  // campaign knobs do not shape the design
  b.threads = 7;         // nor does the session's worker count
  EXPECT_EQ(session_key(b), base);

  b = a;
  b.fifo.depth = 16;
  EXPECT_NE(session_key(b), base);
  b = a;
  b.protection.hamming_r = 4;
  EXPECT_NE(session_key(b), base);
  b = a;
  b.protection.chain_count += 1;
  EXPECT_NE(session_key(b), base);
}

TEST(ServeSessionKey, NetlistKeyTracksFileBytesNotPath) {
  const std::string v = "module m(input a, output y); assign y = a; endmodule\n";
  SpecFile one;
  one.netlist_file = write_file("key_one.v", v);
  SpecFile two;
  two.netlist_file = write_file("key_two.v", v);
  // Same bytes at a different path: same design, same key.
  EXPECT_EQ(session_key(one), session_key(two));

  SpecFile edited;
  edited.netlist_file = write_file("key_three.v", v + "// edited\n");
  EXPECT_NE(session_key(edited), session_key(one));

  SpecFile missing;
  missing.netlist_file = "/nonexistent/never.v";
  EXPECT_THROW(session_key(missing), Error);
}

TEST(ServeSessionCache, CheckoutIsExclusiveAndEvictionIsLru) {
  SessionCache cache(2);
  EXPECT_EQ(cache.checkout(1), nullptr);  // miss
  const SpecFile file = load_spec_file(validation_spec());
  cache.checkin(1, std::make_unique<Session>(make_session(file)));
  auto session = cache.checkout(1);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(cache.checkout(1), nullptr);  // exclusive: handed out once
  cache.checkin(1, std::move(session));

  cache.checkin(2, std::make_unique<Session>(make_session(file)));
  cache.checkin(3, std::make_unique<Session>(make_session(file)));  // evicts 1
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.checkout(1), nullptr);
  EXPECT_NE(cache.checkout(3), nullptr);
  const SessionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);

  SessionCache none(0);  // capacity zero: checkin is a drop
  none.checkin(9, std::make_unique<Session>(make_session(file)));
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.checkout(9), nullptr);
}

// ---------------------------------------------------------------------------
// The core claim: caches and thread counts never change results.

TEST(ServeEquivalence, CachedSessionsDigestIdenticalAcrossKindsAndThreads) {
  const std::string specs[] = {validation_spec(), coverage_spec(),
                               scan_spec()};
  for (const std::string& spec : specs) {
    std::uint64_t digest_at_threads[2] = {0, 0};
    int slot = 0;
    for (const unsigned threads : {1u, 8u}) {
      ServeOptions options;
      options.threads = threads;
      options.session_capacity = 4;
      options.max_active = 1;
      JobManager manager(options);

      const JobRecord cold = run_one(manager, spec);
      ASSERT_EQ(cold.state, JobState::Done) << spec << " " << cold.error;
      ASSERT_TRUE(cold.summary.has_value());
      EXPECT_FALSE(cold.session_reused);

      const JobRecord warm = run_one(manager, spec);
      ASSERT_EQ(warm.state, JobState::Done) << spec << " " << warm.error;
      ASSERT_TRUE(warm.summary.has_value());
      EXPECT_TRUE(warm.session_reused) << spec;
      EXPECT_EQ(manager.session_stats().hits, 1u);

      // Cold vs cached: byte-identical statistics.
      EXPECT_EQ(summary_digest(*warm.summary), summary_digest(*cold.summary))
          << spec << " at " << threads << " threads";
      digest_at_threads[slot++] = summary_digest(*cold.summary);
    }
    // 1 thread vs 8 threads: byte-identical statistics.
    EXPECT_EQ(digest_at_threads[0], digest_at_threads[1]) << spec;
  }
}

TEST(ServeEquivalence, SummarySurvivesTheWireAndDetectsTampering) {
  ServeOptions options;
  options.max_active = 1;
  JobManager manager(options);
  const JobRecord record = run_one(manager, validation_spec());
  ASSERT_TRUE(record.summary.has_value());

  const Json wire = to_json(*record.summary);
  const ResultSummary back = summary_from_json(Json::parse(wire.dump()));
  EXPECT_EQ(summary_digest(back), summary_digest(*record.summary));
  EXPECT_EQ(back.sequences, record.summary->sequences);
  EXPECT_EQ(back.passed, record.summary->passed);

  Json corrupt = Json::parse(wire.dump());
  corrupt.set("detected", corrupt.at("detected").as_u64() + 1);
  EXPECT_THROW(summary_from_json(corrupt), Error);  // digest mismatch

  // The whole job record round-trips too (list/status responses).
  const JobRecord again = job_from_json(Json::parse(to_json(record).dump()));
  EXPECT_EQ(again.id, record.id);
  EXPECT_EQ(again.state, record.state);
  ASSERT_TRUE(again.summary.has_value());
  EXPECT_EQ(summary_digest(*again.summary), summary_digest(*record.summary));
}

// ---------------------------------------------------------------------------
// Job lifecycle.

TEST(ServeJobManager, OverridesShapeTheCampaign) {
  ServeOptions options;
  options.max_active = 1;
  JobManager manager(options);
  const std::string spec = validation_spec();

  SubmitOverrides overrides;
  overrides.sequences = 500;
  const JobRecord shrunk = run_one(manager, spec, overrides);
  ASSERT_EQ(shrunk.state, JobState::Done) << shrunk.error;
  EXPECT_EQ(shrunk.summary->sequences, 500u);

  // apply_overrides is how `retscan run` applies its flags too.
  SpecFile file = load_spec_file(spec);
  overrides = {};
  overrides.seed = 404;
  overrides.threads = 3;
  overrides.checkpoint = "x.journal";
  overrides.resume = true;
  overrides.deadline_ms = 5000;
  apply_overrides(file, overrides);
  EXPECT_EQ(file.campaign.seed, 404u);
  EXPECT_EQ(file.threads, 3u);
  EXPECT_EQ(file.campaign.checkpoint, "x.journal");
  EXPECT_TRUE(file.campaign.resume);
  EXPECT_EQ(file.campaign.deadline_ms, 5000u);

  SubmitOverrides bad;
  bad.threads = 4097;
  EXPECT_THROW(apply_overrides(file, bad), Error);

  // Overrides survive the wire.
  const SubmitOverrides back =
      overrides_from_json(Json::parse(to_json(overrides).dump()));
  EXPECT_EQ(back.seed, overrides.seed);
  EXPECT_EQ(back.checkpoint, overrides.checkpoint);
  EXPECT_EQ(back.resume, overrides.resume);
  EXPECT_EQ(back.deadline_ms, overrides.deadline_ms);

  // A key the daemon does not know is refused, never dropped: a client
  // sending "schedule" must not run under a schedule it did not get.
  EXPECT_THROW(overrides_from_json(Json::parse(R"({"seed":1,"schedule":"event"})")),
               Error);
}

// 11.0 removed the `backend` override with the campaign backend itself: a
// client that still sends one is refused by name, like "schedule" in 4.0.
TEST(ServeJobManager, BackendOverrideIsRefused) {
  try {
    overrides_from_json(Json::parse(R"({"backend":"reference"})"));
    FAIL() << "a backend override was accepted";
  } catch (const Error& error) {
    EXPECT_STREQ(error.what(), "unknown override 'backend'");
  }
}

TEST(ServeJobManager, BadSpecFailsTheJobNotTheDaemon) {
  ServeOptions options;
  options.max_active = 1;
  JobManager manager(options);
  const JobRecord bad = run_one(manager, "/nonexistent/campaign.spec");
  EXPECT_EQ(bad.state, JobState::Failed);
  EXPECT_FALSE(bad.error.empty());
  EXPECT_FALSE(bad.summary.has_value());
  EXPECT_EQ(exit_code_for(bad.state, nullptr), 2);

  // The driver thread survived: the next job runs normally.
  const JobRecord good = run_one(manager, validation_spec());
  EXPECT_EQ(good.state, JobState::Done) << good.error;
  EXPECT_EQ(exit_code_for(good.state, &*good.summary),
            good.summary->passed ? 0 : 1);
}

TEST(ServeJobManager, CancelHitsQueuedAndRunningJobs) {
  ServeOptions options;
  options.max_active = 1;  // one driver: FIFO order is deterministic
  JobManager manager(options);

  // A long-running head-of-line job: 200M sequences last seconds even at
  // the behavioral kernel's speed, and its many shards let a running
  // cancel take effect at the next shard boundary almost immediately.
  SubmitOverrides big;
  big.sequences = 200000000;
  const std::uint64_t running = manager.submit(validation_spec(), big);
  const std::uint64_t queued = manager.submit(validation_spec(), {});

  // The second job cannot start while the single driver owns the first:
  // cancelling it exercises the queued path.
  EXPECT_TRUE(manager.cancel(queued));
  const auto queued_record = manager.wait(queued);
  ASSERT_TRUE(queued_record.has_value());
  EXPECT_EQ(queued_record->state, JobState::Cancelled);

  EXPECT_TRUE(manager.cancel(running));
  const auto running_record = manager.wait(running);
  ASSERT_TRUE(running_record.has_value());
  EXPECT_EQ(running_record->state, JobState::Cancelled);
  EXPECT_EQ(exit_code_for(running_record->state, nullptr), 130);
  if (running_record->summary.has_value()) {
    EXPECT_EQ(running_record->summary->status, "cancelled");
    EXPECT_LT(running_record->summary->shards_completed,
              running_record->summary->shard_count);
  }

  EXPECT_FALSE(manager.cancel(running));  // already terminal
  EXPECT_FALSE(manager.cancel(777));      // unknown

  EXPECT_EQ(manager.list().size(), 2u);
}

TEST(ServeJobManager, DrainFinishesQueuedWorkAndRejectsNewJobs) {
  ServeOptions options;
  options.max_active = 1;
  JobManager manager(options);
  const std::uint64_t a = manager.submit(validation_spec(), {});
  const std::uint64_t b = manager.submit(validation_spec(), {});
  manager.drain();  // must run BOTH to completion, not cancel them
  EXPECT_EQ(manager.status(a)->state, JobState::Done)
      << "job a error: " << manager.status(a)->error;
  EXPECT_EQ(manager.status(b)->state, JobState::Done);
  EXPECT_THROW(manager.submit(validation_spec(), {}), Error);
}

// ---------------------------------------------------------------------------
// Server end-to-end over a real socket.

TEST(ServeServer, FullProtocolOverAUnixSocket) {
  const std::string socket_path =
      (std::filesystem::path(::testing::TempDir()) / "serve_e2e.sock")
          .string();
  ServeOptions options;
  options.max_active = 1;
  Server server(socket_path, options);
  std::thread daemon([&] { server.run(); });

  {
    Client client(socket_path);
    const Json pong = client.request(Json(Json::Object{}).set("cmd", "ping"));
    EXPECT_EQ(pong.at("protocol").as_u64(), kProtocolVersion);
    EXPECT_FALSE(pong.at("version").as_string().empty());
    EXPECT_GT(pong.at("lane_bits").as_u64(), 0u);

    // Unknown commands and malformed ids come back as protocol errors, and
    // so does a submit whose overrides carry an unknown key (no job made).
    EXPECT_THROW(
        client.request(Json(Json::Object{}).set("cmd", "frobnicate")), Error);
    EXPECT_THROW(client.request(Json(Json::Object{})
                                    .set("cmd", "submit")
                                    .set("spec", validation_spec())
                                    .set("overrides", Json::parse(R"({"schedule":"event"})"))),
                 Error);
  }

  // Streamed submit: progress events, then the terminal record. The job's
  // first shard is held 200 ms so the job is still live at the server's
  // first status poll (a job that ends before that poll streams no event);
  // an arming already exported (the resilience CI job's) is kept.
  std::uint64_t streamed_digest = 0;
  {
    const char* armed = std::getenv("RETSCAN_FAILPOINTS");
    const std::string prior = armed != nullptr ? armed : "";
    const std::string hold = "shard.run=delay:200@1";
    ::setenv("RETSCAN_FAILPOINTS", (prior.empty() ? hold : prior + ";" + hold).c_str(),
             1);
    failpoints_refresh();
    Client client(socket_path);
    client.send(Json(Json::Object{})
                    .set("cmd", "submit")
                    .set("spec", validation_spec())
                    .set("wait", true));
    Json line = client.read_line();
    std::size_t events = 0;
    while (!line.has("ok")) {
      EXPECT_EQ(line.at("event").as_string(), "progress");
      ++events;
      line = client.read_line();
    }
    if (armed != nullptr) {
      ::setenv("RETSCAN_FAILPOINTS", prior.c_str(), 1);
    } else {
      ::unsetenv("RETSCAN_FAILPOINTS");
    }
    failpoints_refresh();
    EXPECT_TRUE(line.at("ok").as_bool());
    const JobRecord record = job_from_json(line.at("job"));
    EXPECT_EQ(record.state, JobState::Done) << record.error;
    ASSERT_TRUE(record.summary.has_value());
    streamed_digest = summary_digest(*record.summary);
    EXPECT_GE(events, 1u);  // at least the queued→running transition
  }

  // A second client sees the first client's job, and `result` on a fresh
  // submission blocks until terminal and digests identically (the daemon
  // reused the cached session — invisible in the statistics).
  {
    Client client(socket_path);
    const Json listed = client.request(Json(Json::Object{}).set("cmd", "list"));
    EXPECT_EQ(listed.at("jobs").as_array().size(), 1u);

    const Json submitted = client.request(Json(Json::Object{})
                                              .set("cmd", "submit")
                                              .set("spec", validation_spec()));
    const std::uint64_t id = submitted.at("id").as_u64();
    const Json done = client.request(
        Json(Json::Object{}).set("cmd", "result").set("id", id));
    const JobRecord record = job_from_json(done.at("job"));
    EXPECT_EQ(record.state, JobState::Done) << record.error;
    EXPECT_TRUE(record.session_reused);
    EXPECT_EQ(summary_digest(*record.summary), streamed_digest);

    const Json stats = client.request(Json(Json::Object{}).set("cmd", "stats"));
    EXPECT_EQ(stats.at("sessions").at("hits").as_u64(), 1u);

    const Json cancelled = client.request(
        Json(Json::Object{}).set("cmd", "cancel").set("id", 999));
    EXPECT_FALSE(cancelled.at("cancelled").as_bool());

    const Json bye = client.request(Json(Json::Object{}).set("cmd", "shutdown"));
    EXPECT_TRUE(bye.at("draining").as_bool());
  }

  daemon.join();
  EXPECT_FALSE(std::filesystem::exists(socket_path));  // socket unlinked

  // A dropped client connection must not leak into the next daemon on the
  // same path: restart immediately over the stale-free path.
  Server second(socket_path, options);
  std::thread again([&] { second.run(); });
  {
    Client client(socket_path);
    client.request(Json(Json::Object{}).set("cmd", "shutdown"));
  }
  again.join();
}

/// A finished connection's thread is joined by the accept loop, not kept
/// until drain: a daemon that has served many short-lived clients holds
/// threads (and their mapped stacks) only for the clients still connected.
TEST(ServeServer, FinishedConnectionThreadsAreJoined) {
  const std::string socket_path =
      (std::filesystem::path(::testing::TempDir()) / "serve_reap.sock").string();
  ServeOptions options;
  options.max_active = 1;
  Server server(socket_path, options);
  std::thread daemon([&] { server.run(); });
  for (int ping = 0; ping < 256; ++ping) {
    Client client(socket_path);
    ASSERT_TRUE(client.request(Json(Json::Object{}).set("cmd", "ping")).at("ok").as_bool());
  }
  // Every client has closed; the loop joins the last few when it next wakes.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.connection_threads() > 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(server.connection_threads(), 1u);
  {
    Client client(socket_path);
    client.request(Json(Json::Object{}).set("cmd", "shutdown"));
  }
  daemon.join();
  EXPECT_EQ(server.connection_threads(), 0u);
}

/// ServeOptions::cache_dir and the stats verb's `artifacts` object are
/// transitional (10.0): a daemon given a cache directory runs a gate-level
/// job without creating it, reports two zero counts, and a restarted daemon
/// reproduces the cold digest.
TEST(ServeServer, CacheDirIsInertAndArtifactStatsStayZero) {
  const std::filesystem::path temp_dir(::testing::TempDir());
  const std::string socket_path = (temp_dir / "serve_cache_dir.sock").string();
  ServeOptions options;
  options.cache_dir = (temp_dir / "serve_cache_dir_unused").string();
  options.max_active = 1;
  std::filesystem::remove_all(options.cache_dir);

  std::uint64_t digests[2] = {0, 0};
  for (std::uint64_t& digest : digests) {
    Server server(socket_path, options);
    std::thread daemon([&] { server.run(); });
    {
      Client client(socket_path);
      const Json submitted = client.request(
          Json(Json::Object{}).set("cmd", "submit").set("spec", scan_spec()));
      const Json done = client.request(Json(Json::Object{})
                                           .set("cmd", "result")
                                           .set("id", submitted.at("id").as_u64()));
      const JobRecord record = job_from_json(done.at("job"));
      EXPECT_EQ(record.state, JobState::Done) << record.error;
      ASSERT_TRUE(record.summary.has_value());
      digest = summary_digest(*record.summary);

      const Json stats = client.request(Json(Json::Object{}).set("cmd", "stats"));
      const Json& artifacts = stats.at("artifacts");
      EXPECT_EQ(artifacts.as_object().size(), 2u) << artifacts.dump();
      EXPECT_EQ(artifacts.at("hits").as_u64(), 0u);
      EXPECT_EQ(artifacts.at("misses").as_u64(), 0u);
      client.request(Json(Json::Object{}).set("cmd", "shutdown"));
    }
    daemon.join();
    EXPECT_FALSE(std::filesystem::exists(options.cache_dir));
  }
  EXPECT_EQ(digests[0], digests[1]);
}

}  // namespace
}  // namespace retscan::serve
