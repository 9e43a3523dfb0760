#include "serve/server.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "retscan/runtime.hpp"
#include "retscan/version.hpp"
#include "util/error.hpp"

namespace retscan::serve {

namespace {

/// SIGTERM handlers can only do async-signal-safe work; they land here.
std::atomic<bool> g_signal_shutdown{false};

/// Guard against protocol abuse / a client writing garbage forever.
constexpr std::size_t kMaxLineBytes = 1u << 20;

int connect_probe(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    return fd;  // a live daemon answered
  }
  ::close(fd);
  return -1;
}

int make_listener(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw Error("socket path too long: '" + path + "'");
  }
  if (::access(path.c_str(), F_OK) == 0) {
    const int live = connect_probe(path);
    if (live >= 0) {
      ::close(live);
      throw Error("a retscan daemon is already serving '" + path + "'");
    }
    // Stale socket file from a killed daemon — reclaim it.
    ::unlink(path.c_str());
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw Error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int bind_errno = errno;
    ::close(fd);
    throw Error("bind '" + path + "': " + std::strerror(bind_errno));
  }
  if (::listen(fd, 16) != 0) {
    const int listen_errno = errno;
    ::close(fd);
    ::unlink(path.c_str());
    throw Error("listen '" + path + "': " + std::strerror(listen_errno));
  }
  return fd;
}

/// Write one LF-terminated JSON line; false when the peer is gone
/// (MSG_NOSIGNAL: a SIGKILLed client must not SIGPIPE the daemon).
bool send_line(int fd, const Json& message) {
  const std::string line = message.dump() + "\n";
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n =
        ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

Json error_response(const std::string& message) {
  Json response = Json::Object{};
  response.set("ok", false).set("error", message);
  return response;
}

}  // namespace

void Server::notify_signal() noexcept {
  g_signal_shutdown.store(true, std::memory_order_relaxed);
}

bool Server::shutdown_requested() const {
  return shutdown_.load() || g_signal_shutdown.load(std::memory_order_relaxed);
}

Server::Server(const std::string& socket_path, const ServeOptions& options)
    : socket_path_(socket_path),
      listen_fd_(make_listener(socket_path)),
      manager_(options) {}

Server::~Server() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(socket_path_.c_str());
  }
  stopping_.store(true);
  for (std::thread& connection : connections_) {
    if (connection.joinable()) {
      connection.join();
    }
  }
}

void Server::run() {
  while (!shutdown_requested()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) {
      break;
    }
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) {
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    // 500 ms receive timeout: connection threads wake periodically to
    // notice the drain instead of blocking in recv forever.
    timeval timeout{0, 500 * 1000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    connections_.emplace_back([this, fd] { serve_connection(fd); });
  }
  // Graceful drain: no new connections, finish every accepted job, let
  // the connection threads answer their clients, then join them.
  ::close(listen_fd_);
  ::unlink(socket_path_.c_str());
  listen_fd_ = -1;
  manager_.drain();
  stopping_.store(true);
  for (std::thread& connection : connections_) {
    if (connection.joinable()) {
      connection.join();
    }
  }
  connections_.clear();
}

void Server::serve_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool close_connection = false;
  while (!close_connection) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.empty()) {
        continue;
      }
      Json response;
      try {
        const Json request = Json::parse(line);
        response = handle(request, fd, close_connection);
      } catch (const std::exception& error) {
        // Malformed request: answer, then drop the connection — the
        // line framing may be out of sync.
        response = error_response(error.what());
        close_connection = true;
      }
      if (!send_line(fd, response)) {
        break;
      }
      continue;
    }
    if (buffer.size() > kMaxLineBytes) {
      send_line(fd, error_response("request line too long"));
      break;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      if (stopping_.load()) {
        break;  // drained and idle — the daemon is exiting
      }
      continue;
    }
    break;  // peer closed (SIGKILLed clients land here); its jobs live on
  }
  ::close(fd);
}

Json Server::handle(const Json& request, int fd, bool& close_connection) {
  const std::string cmd = request.at("cmd").as_string();
  Json response = Json::Object{};

  if (cmd == "ping") {
    const BuildInfo info = build_info();
    response.set("ok", true)
        .set("protocol", kProtocolVersion)
        .set("version", info.version)
        .set("lane_words", info.lane_words)
        .set("lane_bits", info.lane_bits)
        .set("avx2", info.avx2)
        .set("threads", manager_.threads());
    return response;
  }
  if (cmd == "submit") {
    const std::string spec = request.at("spec").as_string();
    SubmitOverrides overrides;
    if (const Json* json = request.find("overrides")) {
      overrides = overrides_from_json(*json);
    }
    const std::uint64_t id = manager_.submit(spec, overrides);
    const bool wait = request.has("wait") && request.at("wait").as_bool();
    if (!wait) {
      response.set("ok", true).set("id", id);
      return response;
    }
    // Streamed wait: progress event lines, then the terminal record as
    // the response. A client that dies mid-stream just breaks the send;
    // the job itself is unaffected.
    std::uint64_t last_done = ~std::uint64_t{0};
    JobState last_state = JobState::Queued;
    for (;;) {
      const std::optional<JobRecord> record = manager_.status(id);
      if (!record) {
        return error_response("job " + std::to_string(id) + " vanished");
      }
      if (is_terminal(record->state)) {
        response.set("ok", true).set("id", id).set("job", to_json(*record));
        return response;
      }
      if (record->shards_done != last_done || record->state != last_state) {
        last_done = record->shards_done;
        last_state = record->state;
        Json event = Json::Object{};
        event.set("event", "progress")
            .set("id", id)
            .set("state", to_string(record->state))
            .set("shards_done", record->shards_done)
            .set("shard_count", record->shard_count);
        if (!send_line(fd, event)) {
          close_connection = true;
          return error_response("client gone");
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  if (cmd == "status" || cmd == "result") {
    const std::uint64_t id = request.at("id").as_u64();
    const std::optional<JobRecord> record =
        cmd == "result" ? manager_.wait(id) : manager_.status(id);
    if (!record) {
      return error_response("unknown job " + std::to_string(id));
    }
    response.set("ok", true).set("job", to_json(*record));
    return response;
  }
  if (cmd == "cancel") {
    const std::uint64_t id = request.at("id").as_u64();
    response.set("ok", true).set("cancelled", manager_.cancel(id));
    return response;
  }
  if (cmd == "list") {
    Json jobs = Json::Array{};
    for (const JobRecord& record : manager_.list()) {
      jobs.push(to_json(record));
    }
    response.set("ok", true).set("jobs", std::move(jobs));
    return response;
  }
  if (cmd == "stats") {
    const SessionCache::Stats sessions = manager_.session_stats();
    Json session_json = Json::Object{};
    session_json.set("hits", sessions.hits)
        .set("misses", sessions.misses)
        .set("evictions", sessions.evictions);
    // Transitional (10.0): two zero counts, kept until the benchmark
    // harness, which still reads them, drops them; then the object goes.
    Json artifact_json = Json::Object{};
    artifact_json.set("hits", std::uint64_t{0}).set("misses", std::uint64_t{0});
    response.set("ok", true)
        .set("sessions", std::move(session_json))
        .set("artifacts", std::move(artifact_json))
        .set("threads", manager_.threads());
    return response;
  }
  if (cmd == "shutdown") {
    shutdown_.store(true);
    close_connection = true;
    response.set("ok", true).set("draining", true);
    return response;
  }
  return error_response("unknown command '" + cmd + "'");
}

}  // namespace retscan::serve
