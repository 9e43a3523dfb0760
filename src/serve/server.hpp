#pragma once

/// `retscan serve` daemon: a local AF_UNIX stream-socket front end over
/// the JobManager. Framing is one JSON object per LF-terminated line
/// (serve/protocol.hpp); each accepted connection gets its own thread, so
/// a client blocked in `result` (wait-for-terminal) never stalls another
/// client's `submit`.
///
/// Commands:
///   {"cmd":"ping"}                         → daemon liveness + provenance
///   {"cmd":"submit","spec":P,"overrides":{...}[,"wait":true]}
///                                          → {"ok":true,"id":N}; with
///                                            wait, progress event lines
///                                            then the terminal job record
///   {"cmd":"status","id":N}                → job record snapshot
///   {"cmd":"result","id":N}                → blocks until terminal
///   {"cmd":"cancel","id":N}                → cooperative cancel
///   {"cmd":"list"}                         → every job record
///   {"cmd":"stats"}                        → session-cache stats, pool size
///   {"cmd":"shutdown"}                     → graceful drain, then exit
///
/// Shutdown (the `shutdown` command or SIGTERM via notify_signal()) is a
/// drain: stop accepting, finish every queued and running job, answer the
/// clients still connected, then return from run(). A client killed
/// mid-flight (even SIGKILL) only drops its connection — the job it
/// submitted keeps running and its result stays queryable, which is what
/// the serve CI job asserts.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "serve/job_manager.hpp"

namespace retscan::serve {

class Server {
 public:
  /// Bind + listen on `socket_path`. A stale socket file (left by a
  /// killed daemon) is detected by a probe connect and replaced; a live
  /// daemon on the path is an error.
  Server(const std::string& socket_path, const ServeOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accept/serve until shutdown; drains jobs before returning.
  void run();

  /// Async-signal-safe shutdown request for SIGTERM handlers: a relaxed
  /// store on a process-global flag every Server polls.
  static void notify_signal() noexcept;

  const std::string& socket_path() const { return socket_path_; }
  JobManager& jobs() { return manager_; }

 private:
  void serve_connection(int fd);
  Json handle(const Json& request, int fd, bool& close_connection);
  bool shutdown_requested() const;

  std::string socket_path_;
  int listen_fd_ = -1;
  JobManager manager_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> stopping_{false};  ///< connection threads should exit
  std::vector<std::thread> connections_;
};

}  // namespace retscan::serve
