#include "serve/job_manager.hpp"

#include <chrono>
#include <utility>

#include "retscan/session.hpp"
#include "util/error.hpp"

namespace retscan::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

JobState state_for(CampaignStatus status) {
  switch (status) {
    case CampaignStatus::Complete:  return JobState::Done;
    case CampaignStatus::Cancelled: return JobState::Cancelled;
    case CampaignStatus::Timeout:   return JobState::Timeout;
  }
  return JobState::Failed;
}

}  // namespace

Json to_json(const JobRecord& record) {
  Json json = Json::Object{};
  json.set("id", record.id)
      .set("spec", record.spec_path)
      .set("state", to_string(record.state))
      .set("shards_done", record.shards_done)
      .set("shard_count", record.shard_count)
      .set("session_reused", record.session_reused)
      .set("setup_seconds", record.setup_seconds)
      .set("run_seconds", record.run_seconds);
  if (!record.error.empty()) {
    json.set("error", record.error);
  }
  if (record.summary) {
    json.set("summary", to_json(*record.summary));
  }
  return json;
}

JobRecord job_from_json(const Json& json) {
  JobRecord record;
  record.id = json.at("id").as_u64();
  record.spec_path = json.at("spec").as_string();
  if (!from_string(json.at("state").as_string(), record.state)) {
    throw Error("unknown job state '" + json.at("state").as_string() + "'");
  }
  record.shards_done = json.at("shards_done").as_u64();
  record.shard_count = json.at("shard_count").as_u64();
  record.session_reused = json.at("session_reused").as_bool();
  record.setup_seconds = json.at("setup_seconds").as_double();
  record.run_seconds = json.at("run_seconds").as_double();
  if (const Json* error = json.find("error")) {
    record.error = error->as_string();
  }
  if (const Json* summary = json.find("summary")) {
    record.summary = summary_from_json(*summary);
  }
  return record;
}

JobManager::JobManager(const ServeOptions& options)
    : options_(options),
      runner_(parallel::CampaignOptions{.threads = options.threads}),
      sessions_(options.session_capacity) {
  const std::size_t drivers = options_.max_active == 0 ? 1 : options_.max_active;
  drivers_.reserve(drivers);
  for (std::size_t i = 0; i < drivers; ++i) {
    drivers_.emplace_back([this] { driver_loop(); });
  }
}

JobManager::~JobManager() {
  drain();
}

std::uint64_t JobManager::submit(const std::string& spec_path,
                                 const SubmitOverrides& overrides) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (draining_) {
    throw Error("daemon is draining; not accepting new jobs");
  }
  const std::uint64_t id = next_id_++;
  auto job = std::make_unique<Job>();
  job->record.id = id;
  job->record.spec_path = spec_path;
  job->overrides = overrides;
  jobs_.emplace(id, std::move(job));
  queue_.push_back(id);
  work_cv_.notify_one();
  return id;
}

bool JobManager::cancel(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return false;
  }
  Job& job = *it->second;
  if (job.record.state == JobState::Queued) {
    // Terminal right here; the driver skips non-queued queue entries.
    job.record.state = JobState::Cancelled;
    done_cv_.notify_all();
    return true;
  }
  if (job.record.state == JobState::Running) {
    // Cooperative: the sharded campaign observes the token at the next
    // shard boundary and returns partial (checkpointed) statistics.
    job.token.request_cancel();
    return true;
  }
  return false;
}

std::optional<JobRecord> JobManager::status(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return std::nullopt;
  }
  return it->second->record;
}

std::vector<JobRecord> JobManager::list() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobRecord> records;
  records.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) {
    records.push_back(job->record);
  }
  return records;
}

std::optional<JobRecord> JobManager::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return std::nullopt;
  }
  Job* job = it->second.get();
  done_cv_.wait(lock, [job] { return is_terminal(job->record.state); });
  return job->record;
}

void JobManager::drain() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    draining_ = true;
    // Everything already queued still runs — SIGTERM finishes accepted
    // work; it only refuses new work.
    done_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
    stopping_ = true;
    work_cv_.notify_all();
  }
  for (std::thread& driver : drivers_) {
    if (driver.joinable()) {
      driver.join();
    }
  }
  drivers_.clear();
}

void JobManager::driver_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      while (!queue_.empty()) {
        const std::uint64_t id = queue_.front();
        queue_.pop_front();
        Job& candidate = *jobs_.at(id);
        if (candidate.record.state == JobState::Queued) {
          candidate.record.state = JobState::Running;
          ++active_;
          job = &candidate;
          break;
        }
        // Cancelled while queued: already terminal, nothing to run.
      }
      if (job == nullptr) {
        if (stopping_) {
          return;
        }
        done_cv_.notify_all();  // queue emptied by cancelled entries
        continue;
      }
    }
    execute(*job);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      done_cv_.notify_all();
    }
  }
}

void JobManager::execute(Job& job) {
  const auto setup_start = std::chrono::steady_clock::now();
  std::uint64_t key = 0;
  std::unique_ptr<Session> session;
  try {
    SpecFile file = load_spec_file(job.record.spec_path);
    apply_overrides(file, job.overrides);
    key = session_key(file);
    session = sessions_.checkout(key);
    const bool reused = session != nullptr;
    if (session == nullptr) {
      session = std::make_unique<Session>(make_session(file));
    }
    const CampaignSpec& spec = file.campaign;
    const bool gate_level =
        spec.kind != CampaignKind::Validation || spec.tier == ValidationTier::Structural;
    if (gate_level) {
      // Force the compile now so setup_seconds captures it — the cost a
      // session-cache hit skips.
      session->frame();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job.record.session_reused = reused;
      job.record.setup_seconds = seconds_since(setup_start);
    }

    RunHooks hooks;
    hooks.runner = &runner_;
    hooks.cancel = &job.token;
    hooks.progress = [this, &job](std::size_t done, std::size_t total) {
      const std::lock_guard<std::mutex> lock(mutex_);
      job.record.shards_done = done;
      job.record.shard_count = total;
    };

    const auto run_start = std::chrono::steady_clock::now();
    const CampaignResult result = run(*session, file.campaign, hooks);
    const double run_seconds = seconds_since(run_start);

    // The session survived the campaign intact (cancelled/timeout runs
    // included) — recycle it.
    sessions_.checkin(key, std::move(session));

    const std::lock_guard<std::mutex> lock(mutex_);
    job.record.run_seconds = run_seconds;
    job.record.summary = summarize(result, file.campaign);
    job.record.shards_done = result.shards_completed;
    job.record.shard_count = result.shard_count;
    job.record.state = state_for(result.status);
  } catch (const std::exception& error) {
    // Failed: the session (if any) is dropped, not recycled — a campaign
    // that threw may have left it mid-protocol.
    const std::lock_guard<std::mutex> lock(mutex_);
    job.record.error = error.what();
    job.record.state = JobState::Failed;
  }
}

}  // namespace retscan::serve
