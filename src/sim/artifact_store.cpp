#include "sim/artifact_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/fnv.hpp"
#include "util/journal.hpp"  // crc32
#include "util/lanes.hpp"

namespace retscan {

namespace {

constexpr std::uint32_t kArtifactMagic = 0x41435352u;  // "RSCA" little-endian
constexpr std::uint32_t kArtifactFormat = 1;

/// Little-endian byte-buffer writer. Every field is written explicitly —
/// never a struct memcpy — so the image has no padding bytes, no
/// host-struct-layout dependence and a stable CRC.
struct ByteWriter {
  std::vector<unsigned char> bytes;

  void u8(std::uint8_t value) { bytes.push_back(value); }
  void u16(std::uint16_t value) {
    for (int i = 0; i < 2; ++i) {
      bytes.push_back(static_cast<unsigned char>(value >> (8 * i)));
    }
  }
  void u32(std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<unsigned char>(value >> (8 * i)));
    }
  }
  void u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<unsigned char>(value >> (8 * i)));
    }
  }
};

/// Little-endian reader over a loaded image whose size the caller checked.
struct ByteReader {
  const unsigned char* data;
  std::size_t size;
  std::size_t pos = 0;

  std::uint8_t u8() { return data[pos++]; }
  std::uint16_t u16() {
    std::uint16_t value = 0;
    for (int i = 0; i < 2; ++i) {
      value = static_cast<std::uint16_t>(value | (std::uint16_t{data[pos++]} << (8 * i)));
    }
    return value;
  }
  std::uint32_t u32() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= std::uint32_t{data[pos++]} << (8 * i);
    }
    return value;
  }
  std::uint64_t u64() {
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= std::uint64_t{data[pos++]} << (8 * i);
    }
    return value;
  }
};

[[noreturn]] void reject(const std::string& field, const std::string& detail) {
  throw Error("compiled-netlist artifact rejected (" + field + "): " + detail);
}

// Header byte size: magic + format + lane_words + reserved (4 x u32),
// fingerprint + 5 counts (6 x u64), crc (u32).
constexpr std::size_t kHeaderBytes = 4 * 4 + 6 * 8 + 4;
// One serialized instruction: in0/in1/in2/out/cell (5 x u32) + domain (u16)
// + op (u8).
constexpr std::size_t kInstrBytes = 5 * 4 + 2 + 1;

}  // namespace

/// The one component allowed to touch CompiledNetlist's private state: it
/// enumerates the fields for serialization and rebuilds an instance from a
/// validated image. Field lists here and in the class declaration must move
/// together — kArtifactFormat bumps when they do.
struct CompiledArtifactCodec {
  static void write_body(ByteWriter& out, const CompiledNetlist& c) {
    for (const std::uint32_t slot : c.slot_of_net_) {
      out.u32(slot);
    }
    for (const NetId net : c.net_of_slot_) {
      out.u32(net);
    }
    for (const CompiledInstr& instr : c.instrs_) {
      out.u32(instr.in0);
      out.u32(instr.in1);
      out.u32(instr.in2);
      out.u32(instr.out);
      out.u32(instr.cell);
      out.u16(instr.domain);
      out.u8(static_cast<std::uint8_t>(instr.op));
    }
    for (const std::uint32_t level : c.instr_level_) {
      out.u32(level);
    }
    for (const std::uint32_t offset : c.reader_offsets_) {
      out.u32(offset);
    }
    for (const std::uint32_t instr : c.reader_instrs_) {
      out.u32(instr);
    }
  }

  static std::size_t body_bytes(std::size_t slots, std::size_t instrs,
                                std::size_t readers) {
    return slots * 4 * 2                // slot_of_net + net_of_slot
           + instrs * kInstrBytes       // instruction stream
           + instrs * 4                 // instr_level
           + (slots + 1) * 4            // reader_offsets (CSR)
           + readers * 4;               // reader_instrs
  }

  /// Rebuild an instance from a body whose counts and CRC already passed,
  /// rejecting every index an engine would dereference out of range: slots
  /// below `slots`, cells below the netlist's cell count, domains below
  /// `domains`, levels below `levels`, reader instructions below `instrs`.
  static std::shared_ptr<const CompiledNetlist> read_body(
      ByteReader& in, const Netlist& netlist, std::size_t slots,
      std::size_t instrs, std::size_t levels, std::size_t domains,
      std::size_t readers) {
    const auto below = [&in](const char* field, std::size_t bound,
                             const char* bound_name) {
      const std::uint32_t value = in.u32();
      if (value >= bound) {
        reject(field, std::to_string(value) + " >= " + bound_name + " " +
                          std::to_string(bound));
      }
      return value;
    };
    auto compiled = std::shared_ptr<CompiledNetlist>(new CompiledNetlist());
    compiled->slot_of_net_.resize(slots);
    for (std::uint32_t& slot : compiled->slot_of_net_) {
      slot = below("slot_of_net", slots, "slot count");
    }
    compiled->net_of_slot_.resize(slots);
    for (NetId& net : compiled->net_of_slot_) {
      net = below("net_of_slot", slots, "net count");
    }
    compiled->instrs_.resize(instrs);
    for (CompiledInstr& instr : compiled->instrs_) {
      instr.in0 = below("instr in0", slots, "slot count");
      instr.in1 = below("instr in1", slots, "slot count");
      instr.in2 = below("instr in2", slots, "slot count");
      instr.out = below("instr out", slots, "slot count");
      instr.cell = below("instr cell", netlist.cell_count(), "cell count");
      instr.domain = in.u16();
      if (instr.domain >= domains) {
        reject("instr domain", std::to_string(instr.domain) + " >= domain count " +
                                   std::to_string(domains));
      }
      const std::uint8_t op = in.u8();
      if (op > static_cast<std::uint8_t>(CompiledOp::Mux2)) {
        reject("instr op", "opcode " + std::to_string(op) + " out of range");
      }
      instr.op = static_cast<CompiledOp>(op);
    }
    compiled->instr_level_.resize(instrs);
    for (std::uint32_t& level : compiled->instr_level_) {
      level = in.u32();
      if (level >= levels) {
        reject("instr level", "level " + std::to_string(level) +
                                  " >= level_count " + std::to_string(levels));
      }
    }
    compiled->level_count_ = levels;
    compiled->domain_count_ = domains;
    compiled->reader_offsets_.resize(slots + 1);
    std::uint32_t previous = 0;
    for (std::uint32_t& offset : compiled->reader_offsets_) {
      offset = in.u32();
      if (offset < previous) {
        reject("reader_offsets", "offsets decrease");
      }
      previous = offset;
    }
    if (previous != readers) {
      reject("reader_offsets", "last offset " + std::to_string(previous) +
                                   " != reader count " + std::to_string(readers));
    }
    compiled->reader_instrs_.resize(readers);
    for (std::uint32_t& instr : compiled->reader_instrs_) {
      instr = below("reader_instrs", instrs, "instruction count");
    }
    return compiled;
  }

  static std::size_t slot_count(const CompiledNetlist& c) {
    return c.slot_of_net_.size();
  }
  static std::size_t reader_count(const CompiledNetlist& c) {
    return c.reader_instrs_.size();
  }
};

std::uint64_t netlist_structure_fingerprint(const Netlist& netlist) {
  Fnv1a fp;
  fp.add_text(netlist.name());
  fp.add(netlist.net_count());
  fp.add(netlist.cell_count());
  for (CellId id = 0; id < netlist.cell_count(); ++id) {
    const Cell& cell = netlist.cell(id);
    fp.add(static_cast<std::uint64_t>(cell.type));
    fp.add(cell.domain);
    fp.add(cell.out);
    fp.add(cell.fanin.size());
    for (const NetId net : cell.fanin) {
      fp.add(net);
    }
  }
  for (const CellId id : netlist.inputs()) {
    fp.add(id);
  }
  for (const CellId id : netlist.outputs()) {
    fp.add(id);
  }
  return fp.hash;
}

void write_compiled_artifact(std::ostream& out, const CompiledNetlist& compiled,
                             std::uint64_t fingerprint) {
  ByteWriter header;
  header.u32(kArtifactMagic);
  header.u32(kArtifactFormat);
  header.u32(kLaneWords);
  header.u32(0);  // reserved
  header.u64(fingerprint);
  header.u64(CompiledArtifactCodec::slot_count(compiled));
  header.u64(compiled.instrs().size());
  header.u64(compiled.level_count());
  header.u64(compiled.domain_count());
  header.u64(CompiledArtifactCodec::reader_count(compiled));
  header.u32(crc32(header.bytes.data(), header.bytes.size()));

  ByteWriter body;
  CompiledArtifactCodec::write_body(body, compiled);
  const std::uint32_t body_crc = crc32(body.bytes.data(), body.bytes.size());

  out.write(reinterpret_cast<const char*>(header.bytes.data()),
            static_cast<std::streamsize>(header.bytes.size()));
  out.write(reinterpret_cast<const char*>(body.bytes.data()),
            static_cast<std::streamsize>(body.bytes.size()));
  ByteWriter tail;
  tail.u32(body_crc);
  out.write(reinterpret_cast<const char*>(tail.bytes.data()),
            static_cast<std::streamsize>(tail.bytes.size()));
  if (!out) {
    throw Error("compiled-netlist artifact: write failed");
  }
}

namespace {

std::shared_ptr<const CompiledNetlist> read_artifact(std::istream& in,
                                                     const Netlist& netlist,
                                                     std::uint64_t expect_fingerprint) {
  std::vector<unsigned char> image{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
  if (image.size() < kHeaderBytes) {
    reject("header size", "file holds " + std::to_string(image.size()) +
                              " bytes, header needs " +
                              std::to_string(kHeaderBytes));
  }
  ByteReader reader{image.data(), image.size()};
  const std::uint32_t magic = reader.u32();
  if (magic != kArtifactMagic) {
    reject("magic", "not a retscan compiled-netlist artifact");
  }
  const std::uint32_t format = reader.u32();
  if (format != kArtifactFormat) {
    reject("format", "artifact format " + std::to_string(format) +
                         ", this build reads format " +
                         std::to_string(kArtifactFormat));
  }
  const std::uint32_t lane_words = reader.u32();
  if (lane_words != kLaneWords) {
    reject("lane_words", "artifact written by a lane_words=" +
                             std::to_string(lane_words) +
                             " build, this build is lane_words=" +
                             std::to_string(kLaneWords));
  }
  reader.u32();  // reserved
  const std::uint64_t fingerprint = reader.u64();
  const std::uint64_t slots = reader.u64();
  const std::uint64_t instrs = reader.u64();
  const std::uint64_t levels = reader.u64();
  const std::uint64_t domains = reader.u64();
  const std::uint64_t readers = reader.u64();
  const std::uint32_t header_crc = reader.u32();
  if (header_crc != crc32(image.data(), kHeaderBytes - 4)) {
    reject("header crc", "stored header checksum does not match its contents");
  }
  if (fingerprint != expect_fingerprint) {
    reject("netlist_fingerprint",
           "artifact compiled from a different netlist structure");
  }
  // Bound every count by the image before multiplying, so no header can
  // wrap the size arithmetic below or ask read_body for a huge allocation.
  if (slots > image.size() / 12 || instrs > image.size() / (kInstrBytes + 4) ||
      readers > image.size() / 4) {
    reject("body size", "header counts exceed the " + std::to_string(image.size()) +
                            "-byte file");
  }
  const std::size_t body =
      CompiledArtifactCodec::body_bytes(slots, instrs, readers);
  if (image.size() != kHeaderBytes + body + 4) {
    reject("body size", "expected " + std::to_string(kHeaderBytes + body + 4) +
                            " bytes total, file holds " +
                            std::to_string(image.size()) + " (truncated?)");
  }
  const std::uint32_t body_crc = crc32(image.data() + kHeaderBytes, body);
  ByteReader tail{image.data(), image.size(), kHeaderBytes + body};
  if (tail.u32() != body_crc) {
    reject("body crc", "stored body checksum does not match its contents");
  }
  if (slots != netlist.net_count()) {
    reject("slot count", std::to_string(slots) + " slots for a netlist of " +
                             std::to_string(netlist.net_count()) + " nets");
  }
  if (levels > instrs) {
    reject("level count", std::to_string(levels) + " levels for " +
                              std::to_string(instrs) + " instructions");
  }
  DomainId max_domain = 0;
  for (CellId id = 0; id < netlist.cell_count(); ++id) {
    max_domain = std::max(max_domain, netlist.cell(id).domain);
  }
  if (domains != std::size_t{max_domain} + 1) {
    reject("domain count", std::to_string(domains) + " domains for a netlist of " +
                               std::to_string(std::size_t{max_domain} + 1));
  }
  return CompiledArtifactCodec::read_body(reader, netlist, slots, instrs, levels,
                                          domains, readers);
}

}  // namespace

std::shared_ptr<const CompiledNetlist> read_compiled_artifact(std::istream& in,
                                                              const Netlist& netlist) {
  return read_artifact(in, netlist, netlist_structure_fingerprint(netlist));
}

CompiledArtifactStore::CompiledArtifactStore(std::string dir)
    : dir_(std::move(dir)) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (!fs::is_directory(dir_)) {
    throw Error("artifact store '" + dir_ +
                "': cannot create (or is not) a directory");
  }
}

std::string CompiledArtifactStore::artifact_path(std::uint64_t fingerprint) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.rsca",
                static_cast<unsigned long long>(fingerprint));
  return (std::filesystem::path(dir_) / name).string();
}

std::shared_ptr<const CompiledNetlist> CompiledArtifactStore::load(const Netlist& netlist) {
  return load(netlist, netlist_structure_fingerprint(netlist));
}

std::shared_ptr<const CompiledNetlist> CompiledArtifactStore::load(
    const Netlist& netlist, std::uint64_t fingerprint) {
  std::ifstream in(artifact_path(fingerprint), std::ios::binary);
  if (!in) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    return nullptr;
  }
  try {
    std::shared_ptr<const CompiledNetlist> compiled =
        read_artifact(in, netlist, fingerprint);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return compiled;
  } catch (const Error&) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rejected;
    return nullptr;
  }
}

void CompiledArtifactStore::store(std::uint64_t fingerprint,
                                  const CompiledNetlist& compiled) {
  namespace fs = std::filesystem;
  const std::string path = artifact_path(fingerprint);
  // Unique temp name per writer so concurrent processes never interleave
  // into one file; the final rename is atomic within the directory.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<unsigned long>(::getpid()));
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) {
        throw Error("artifact store: cannot open '" + tmp + "' for writing");
      }
      write_compiled_artifact(out, compiled, fingerprint);
    }
    fs::rename(tmp, path);
  } catch (const std::exception&) {
    std::error_code ec;
    fs::remove(tmp, ec);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.write_errors;
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.stored;
}

std::shared_ptr<const CompiledNetlist> CompiledArtifactStore::load_or_compile(
    const Netlist& netlist) {
  const std::uint64_t fingerprint = netlist_structure_fingerprint(netlist);
  if (std::shared_ptr<const CompiledNetlist> compiled = load(netlist, fingerprint)) {
    return compiled;
  }
  auto compiled = std::make_shared<const CompiledNetlist>(netlist);
  store(fingerprint, *compiled);
  return compiled;
}

CompiledArtifactStore::Stats CompiledArtifactStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

namespace {

std::mutex& store_mutex() {
  static std::mutex mutex;
  return mutex;
}

std::shared_ptr<CompiledArtifactStore>& store_slot() {
  static std::shared_ptr<CompiledArtifactStore> store;
  return store;
}

/// RETSCAN_ARTIFACT_DIR is consulted once; explicit install() beats it.
bool& env_checked() {
  static bool checked = false;
  return checked;
}

}  // namespace

void install_artifact_store(std::shared_ptr<CompiledArtifactStore> store) {
  const std::lock_guard<std::mutex> lock(store_mutex());
  store_slot() = std::move(store);
  env_checked() = true;  // an explicit install (even nullptr) pins the choice
}

std::shared_ptr<CompiledArtifactStore> installed_artifact_store() {
  const std::lock_guard<std::mutex> lock(store_mutex());
  if (!env_checked()) {
    env_checked() = true;
    if (const char* dir = std::getenv("RETSCAN_ARTIFACT_DIR");
        dir != nullptr && *dir != '\0') {
      try {
        store_slot() = std::make_shared<CompiledArtifactStore>(dir);
      } catch (const Error& error) {
        std::fprintf(stderr,
                     "[retscan] warning: RETSCAN_ARTIFACT_DIR ignored: %s\n",
                     error.what());
      }
    }
  }
  return store_slot();
}

}  // namespace retscan
