#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>

#include "sim/compiled_netlist.hpp"

namespace retscan {

/// FNV-1a 64 over everything a CompiledNetlist is a pure function of: the
/// module name, net count, port lists and every cell's (type, domain,
/// fanin, out) in declaration order. Two netlists with equal fingerprints
/// lower to byte-identical instruction streams, which is what makes an
/// on-disk artifact keyed by this hash safe to substitute for a fresh
/// compile.
std::uint64_t netlist_structure_fingerprint(const Netlist& netlist);

/// Serialize a compiled netlist as a versioned binary artifact (the PR 8
/// journal format style: fixed-width host-endian fields, CRC'd header +
/// CRC'd body). `fingerprint` is the source netlist's structure fingerprint
/// and is embedded in the header so a foreign artifact can never be loaded
/// against the wrong design. Throws retscan::Error on I/O failure.
void write_compiled_artifact(std::ostream& out, const CompiledNetlist& compiled,
                             std::uint64_t fingerprint);

/// Parse and validate an artifact image for `netlist`, the design the
/// caller wants to simulate. Every rejection names the field that failed
/// (magic, format, lane_words, header crc, netlist_fingerprint, body size,
/// body crc, then the slot / level / domain counts and each index field of
/// the body) so a corrupt or foreign file is diagnosable — and the caller
/// recompiles instead of trusting it. An image whose CRCs match is still
/// checked: no index an engine dereferences can fall outside its array.
std::shared_ptr<const CompiledNetlist> read_compiled_artifact(std::istream& in,
                                                              const Netlist& netlist);

/// On-disk cache of compiled netlists, one artifact file per structure
/// fingerprint (`<dir>/<hex fingerprint>.rsca`). Writes go through a
/// temp-file + atomic-rename so a crashed writer can never leave a torn
/// artifact behind; a torn/corrupt/foreign file is rejected by
/// read_compiled_artifact and silently recompiled (the rejection is
/// counted, never fatal). Thread-safe.
class CompiledArtifactStore {
 public:
  /// Creates `dir` (and parents) if missing. Throws retscan::Error when the
  /// path exists but is not a directory.
  explicit CompiledArtifactStore(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Path of the artifact file for one fingerprint.
  std::string artifact_path(std::uint64_t fingerprint) const;

  /// Load the artifact for `netlist`, or nullptr when missing or rejected
  /// (rejections are counted in stats().rejected).
  std::shared_ptr<const CompiledNetlist> load(const Netlist& netlist);

  /// Persist a compiled netlist under `fingerprint` (atomic rename;
  /// concurrent writers race benignly — last rename wins, both images are
  /// valid). I/O failures are counted, not thrown: the cache is an
  /// accelerator, never a correctness dependency.
  void store(std::uint64_t fingerprint, const CompiledNetlist& compiled);

  /// The main entry: artifact hit → deserialized stream, otherwise compile
  /// from `netlist` and persist the result for the next process.
  std::shared_ptr<const CompiledNetlist> load_or_compile(const Netlist& netlist);

  struct Stats {
    std::uint64_t hits = 0;      ///< artifacts loaded successfully
    std::uint64_t misses = 0;    ///< fingerprint had no artifact file
    std::uint64_t rejected = 0;  ///< file present but corrupt/foreign
    std::uint64_t stored = 0;    ///< artifacts written
    std::uint64_t write_errors = 0;
  };
  Stats stats() const;

 private:
  std::shared_ptr<const CompiledNetlist> load(const Netlist& netlist,
                                              std::uint64_t fingerprint);

  std::string dir_;
  mutable std::mutex mutex_;
  Stats stats_;
};

/// Process-global artifact store consulted by Netlist::compiled(): when
/// installed, every lazy compile in the process (sessions, testbenches,
/// fault frames) first tries the store and persists on miss. Install with
/// nullptr to uninstall. The RETSCAN_ARTIFACT_DIR environment key
/// auto-installs a store on first use (strictly optional — unset means no
/// store, and a dir that cannot be created warns once and stays off).
void install_artifact_store(std::shared_ptr<CompiledArtifactStore> store);
std::shared_ptr<CompiledArtifactStore> installed_artifact_store();

}  // namespace retscan
