#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "retscan/runtime.hpp"
#include "util/cancel.hpp"
#include "util/failpoint.hpp"

namespace retscan {

namespace {
/// Which pool (if any) owns the current thread — used to run nested
/// parallel_for calls inline instead of deadlocking a worker on itself.
thread_local const ThreadPool* tl_pool = nullptr;
}  // namespace

/// One parallel_for call, living on its caller's stack. Every field but
/// the constants is guarded by the pool's mutex. A job is in the pool's
/// list exactly while next < count.
struct ThreadPool::Job {
  Job(const std::function<void(std::size_t)>& body, const CancelToken* cancel,
      std::size_t count)
      : body(body), cancel(cancel), count(count), error_index(count) {}

  bool finished() const { return next == count && running == 0; }

  const std::function<void(std::size_t)>& body;
  const CancelToken* const cancel;
  const std::size_t count;
  std::size_t next = 0;     ///< next body index to hand out
  std::size_t running = 0;  ///< bodies handed out and not yet finished
  /// Lowest body index that threw (count while none has), and its
  /// exception — campaigns report the first failing shard by shard id, not
  /// whichever worker's throw won the wall-clock race.
  std::size_t error_index;
  std::exception_ptr error;
  std::condition_variable done;
};

unsigned ThreadPool::default_thread_count() {
  // Env parsing (and its strict-parse warning) lives in retscan::runtime —
  // the one interpreter of RETSCAN_* for the whole library.
  return runtime_threads();
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned count = threads == 0 ? default_thread_count() : threads;
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

/// Stop handing out `job`'s bodies: the ones not yet started are skipped.
/// Idempotent.
void ThreadPool::retire_locked(Job& job) {
  job.next = job.count;
  const auto at = std::find(jobs_.begin(), jobs_.end(), &job);
  if (at == jobs_.end()) {
    return;
  }
  if (static_cast<std::size_t>(at - jobs_.begin()) < cursor_) {
    --cursor_;
  }
  jobs_.erase(at);
}

void ThreadPool::worker_loop() {
  tl_pool = this;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
    if (jobs_.empty()) {
      return;  // stopping, and no job has bodies left
    }
    if (cursor_ >= jobs_.size()) {
      cursor_ = 0;
    }
    Job& job = *jobs_[cursor_];
    if (job.cancel != nullptr && job.cancel->cancelled()) {
      retire_locked(job);
      if (job.finished()) {
        job.done.notify_one();
      }
      continue;
    }
    const std::size_t index = job.next++;
    ++job.running;
    if (job.next == job.count) {
      retire_locked(job);  // the cursor now names the following job
    } else {
      ++cursor_;  // round-robin: the next body comes from the next job
    }

    lock.unlock();
    std::exception_ptr error;
    try {
      job.body(index);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();

    --job.running;
    if (error) {
      retire_locked(job);
      if (index < job.error_index) {
        job.error_index = index;
        job.error = error;
      }
    }
    // Notified under the lock: the caller cannot wake, return and destroy
    // the job until this worker has let go of it.
    if (job.finished()) {
      job.done.notify_one();
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body,
                              const CancelToken* cancel) {
  if (count == 0) {
    return;
  }
  if (tl_pool == this || size() <= 1 || count == 1) {
    // Same contract as the pooled path: a thrown exception (or a cancelled
    // token) skips the bodies not yet started; the first error by index is
    // the one rethrown. Inline, index order and start order coincide.
    for (std::size_t i = 0; i < count; ++i) {
      if (cancel != nullptr && cancel->cancelled()) {
        return;
      }
      body(i);
    }
    return;
  }

  failpoint("pool.dispatch");
  Job job(body, cancel, count);
  std::unique_lock<std::mutex> lock(mutex_);
  jobs_.push_back(&job);
  wake_.notify_all();
  job.done.wait(lock, [&job] { return job.finished(); });
  lock.unlock();
  if (job.error) {
    std::rethrow_exception(job.error);
  }
}

}  // namespace retscan
