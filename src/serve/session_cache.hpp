#pragma once

/// In-memory session cache for the serve daemon.
///
/// Building a Session is the expensive part of a small campaign: protected
/// synthesis, scan insertion, netlist compilation, workspace warm-up. Two
/// jobs over the same design should pay it once. The cache keys on a
/// content hash of everything that shapes the design — the library
/// version, the *bytes* of an imported netlist file (not its path:
/// editing the file must miss), the FIFO geometry and every protection
/// field. Thread count is deliberately excluded: daemon
/// jobs execute on the shared runner via RunHooks, so the session's own
/// pool size never shapes results.
///
/// Cached sessions are handed out exclusively (checkout removes the
/// entry) and returned with checkin, so two concurrent jobs over the same
/// design simply build two sessions — no aliasing of mutable session
/// state. Eviction is LRU by checkin order. tests/test_serve.cpp asserts
/// cached-session campaign results are byte-identical to cold-session
/// runs across campaign kinds and thread counts.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>

#include "retscan/campaign.hpp"
#include "retscan/session.hpp"

namespace retscan::serve {

/// Content hash of the design a spec file describes (see file comment for
/// what participates). Reads the netlist file when one is named; throws
/// retscan::Error if it cannot be read.
std::uint64_t session_key(const SpecFile& file);

class SessionCache {
 public:
  explicit SessionCache(std::size_t capacity) : capacity_(capacity) {}

  /// Remove and return an idle session for `key`, or nullptr on a miss.
  std::unique_ptr<Session> checkout(std::uint64_t key);

  /// Return an idle session to the cache (most-recently-used position).
  /// Evicts the least-recently-used entry beyond capacity. A capacity of
  /// zero makes this a drop — every checkout misses.
  void checkin(std::uint64_t key, std::unique_ptr<Session> session);

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
  };
  Stats stats() const;
  std::size_t size() const;

 private:
  struct Entry {
    std::uint64_t key;
    std::unique_ptr<Session> session;
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> entries_;  ///< front = most recently checked in
  Stats stats_;
};

}  // namespace retscan::serve
