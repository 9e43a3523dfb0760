#pragma once

/// Campaign job multiplexer behind the `retscan serve` daemon.
///
/// Jobs (spec file + overrides) queue in submission order; a small set of
/// driver threads executes them, every campaign running on ONE shared
/// CampaignRunner, whose pool serves concurrent callers round-robin, so N
/// concurrent jobs interleave shard-by-shard instead of fighting over
/// cores with N private pools. Sessions come from the SessionCache, compiled
/// netlists from the process-global CompiledArtifactStore — neither cache
/// can change a campaign's statistics (same seed → same results, cold or
/// warm; asserted by tests/test_serve.cpp and the serve CI job).
///
/// Each job owns a CancelToken: cancel() stops a queued job immediately
/// and interrupts a running sharded campaign at the next shard boundary,
/// inheriting the CampaignSpec checkpoint/deadline semantics — a
/// cancelled job with a checkpoint journal resumes bit-exactly. drain()
/// is the SIGTERM path: stop accepting, finish everything queued, join.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "retscan/campaign.hpp"
#include "serve/protocol.hpp"
#include "serve/session_cache.hpp"
#include "sim/artifact_store.hpp"

namespace retscan::serve {

struct ServeOptions {
  /// On-disk compiled-netlist artifact directory; empty disables the
  /// store (sessions still cache in memory).
  std::string cache_dir;
  /// Idle sessions kept warm (LRU).
  std::size_t session_capacity = 8;
  /// Shared pool size; 0 → RETSCAN_THREADS / hardware_concurrency().
  unsigned threads = 0;
  /// Campaigns executing concurrently (each gets a driver thread; their
  /// shards interleave fairly on the one shared pool).
  std::size_t max_active = 2;
};

/// Wire-safe snapshot of one job, returned by status/list/wait and
/// serialized into every response that mentions a job.
struct JobRecord {
  std::uint64_t id = 0;
  std::string spec_path;
  JobState state = JobState::Queued;
  std::uint64_t shards_done = 0;
  std::uint64_t shard_count = 0;
  bool session_reused = false;  ///< session came from the in-memory cache
  double setup_seconds = 0.0;   ///< spec parse + session build/warm-up
  double run_seconds = 0.0;     ///< campaign body wall-clock
  std::string error;            ///< Failed only
  std::optional<ResultSummary> summary;  ///< terminal non-Failed states
};

Json to_json(const JobRecord& record);
JobRecord job_from_json(const Json& json);

class JobManager {
 public:
  explicit JobManager(const ServeOptions& options);
  ~JobManager();  ///< drains (finishes queued + running jobs) and joins

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Queue a job. Throws retscan::Error once drain() has begun. The spec
  /// file is parsed on the driver thread — a bad spec fails the job, not
  /// the submission.
  std::uint64_t submit(const std::string& spec_path,
                       const SubmitOverrides& overrides);

  /// Cancel a job: queued → Cancelled immediately; running → its token is
  /// cancelled and the sharded campaign stops at the next shard boundary.
  /// Returns false for unknown or already-terminal jobs.
  bool cancel(std::uint64_t id);

  std::optional<JobRecord> status(std::uint64_t id) const;
  std::vector<JobRecord> list() const;

  /// Block until the job reaches a terminal state; nullopt if unknown.
  std::optional<JobRecord> wait(std::uint64_t id);

  /// Stop accepting submissions, run everything already queued to
  /// completion, and join the driver threads. Idempotent; the destructor
  /// calls it. Cancel jobs first for a fast exit.
  void drain();

  const ServeOptions& options() const { return options_; }
  unsigned threads() { return runner_.threads(); }
  SessionCache::Stats session_stats() const { return sessions_.stats(); }
  /// Stats of the daemon's artifact store; zeros when cache_dir is empty.
  CompiledArtifactStore::Stats artifact_stats() const;

 private:
  struct Job {
    /// What status/list/wait return. Guarded by mutex_; id and spec_path
    /// are fixed at submit.
    JobRecord record;
    SubmitOverrides overrides;
    CancelToken token;
  };

  void driver_loop();
  void execute(Job& job);

  ServeOptions options_;
  std::shared_ptr<CompiledArtifactStore> artifacts_;  ///< also installed globally
  parallel::CampaignRunner runner_;
  mutable SessionCache sessions_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< wakes drivers
  std::condition_variable done_cv_;  ///< wakes wait()/drain()
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::deque<std::uint64_t> queue_;
  std::uint64_t next_id_ = 1;
  std::size_t active_ = 0;
  bool draining_ = false;  ///< submit() rejects
  bool stopping_ = false;  ///< drivers exit once the queue is empty
  std::vector<std::thread> drivers_;
};

}  // namespace retscan::serve
