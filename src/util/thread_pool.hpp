#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace retscan {

class CancelToken;

/// Fixed set of worker threads serving parallel_for jobs fairly. Each
/// parallel_for call is one job; an idle worker takes the next body index
/// of the next job in round-robin order (self-scheduling), so concurrent
/// callers — the serve daemon's campaigns, a coverage phase beside a
/// validation campaign — interleave body-for-body instead of queueing
/// behind each other, and uneven body costs still fill every core. This is
/// the execution substrate of the retscan::parallel campaign layer.
///
/// Determinism note: the pool schedules; it never sequences results. All
/// campaign-level reductions happen in shard order outside the pool, so
/// the same seed produces bit-identical campaign statistics at any thread
/// count and under any mix of concurrent callers.
class ThreadPool {
 public:
  /// threads == 0 → default_thread_count() (RETSCAN_THREADS env override,
  /// else std::thread::hardware_concurrency()).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Run body(0) .. body(count-1) on the workers and block until every body
  /// has finished or been skipped. Thread-safe: concurrent callers are
  /// separate jobs, served round-robin. A throwing body skips the bodies
  /// of its job that have not started yet, and of the bodies that did
  /// throw, the one with the LOWEST index is rethrown here — deterministic
  /// by shard id, never by wall clock. If `cancel` is non-null, bodies are
  /// likewise skipped once the token reports cancelled (no exception: the
  /// caller owns the token and inspects it). Runs inline when called from a
  /// pool worker (no nested deadlock), for a single body, or when the pool
  /// is effectively serial, with the same skip-after-error/cancel
  /// semantics. The `pool.dispatch` failpoint fires once per call that
  /// reaches the workers, before any body runs.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                    const CancelToken* cancel = nullptr);

  /// RETSCAN_THREADS env override (strictly parsed), else
  /// hardware_concurrency(), else 1.
  static unsigned default_thread_count();

 private:
  struct Job;

  void worker_loop();
  void retire_locked(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;  ///< a job was posted, or stop_
  std::vector<Job*> jobs_;        ///< jobs with bodies left to hand out
  std::size_t cursor_ = 0;        ///< round-robin position in jobs_
  bool stop_ = false;
};

}  // namespace retscan
