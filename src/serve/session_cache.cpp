#include "serve/session_cache.hpp"

#include <fstream>
#include <sstream>

#include "retscan/version.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"

namespace retscan::serve {

std::uint64_t session_key(const SpecFile& file) {
  Fnv1a key;
  key.add_text(RETSCAN_VERSION_STRING);
  if (!file.netlist_file.empty()) {
    // Hash the file's bytes, not its name: the same circuit under two
    // paths shares a session, and editing the file invalidates it.
    std::ifstream in(file.netlist_file, std::ios::binary);
    if (!in) {
      throw Error("cannot read netlist file '" + file.netlist_file + "'");
    }
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const std::string content = bytes.str();
    key.add(1);  // source discriminator: imported netlist
    key.add_bytes(content.data(), content.size());
    key.add(content.size());
  } else {
    key.add(2);  // source discriminator: generated FIFO
    key.add(file.fifo.depth);
    key.add(file.fifo.width);
  }
  const ProtectionConfig& p = file.protection;
  key.add(static_cast<std::uint64_t>(p.kind));
  key.add(p.hamming_r);
  key.add(p.secded ? 1 : 0);
  key.add(p.chain_count);
  key.add(p.test_width);
  key.add(p.hardware_controller ? 1 : 0);
  return key.hash;
}

std::unique_ptr<Session> SessionCache::checkout(std::uint64_t key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key == key) {
      std::unique_ptr<Session> session = std::move(it->session);
      entries_.erase(it);
      ++stats_.hits;
      return session;
    }
  }
  ++stats_.misses;
  return nullptr;
}

void SessionCache::checkin(std::uint64_t key, std::unique_ptr<Session> session) {
  if (session == nullptr) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.push_front(Entry{key, std::move(session)});
  while (entries_.size() > capacity_) {
    entries_.pop_back();
    ++stats_.evictions;
  }
}

SessionCache::Stats SessionCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t SessionCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace retscan::serve
