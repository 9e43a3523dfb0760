// Compiled-netlist artifact store (sim/artifact_store.hpp): serialization
// round-trips must be bit-identical under both eval_full and eval_event on
// the vendored circuits, every class of corrupt/foreign artifact must be
// rejected by its named field (and recompiled, never trusted), and the
// on-disk store must hit/miss/reject with accurate accounting — including
// when installed process-globally behind Netlist::compiled().

#include "sim/artifact_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/compiled_netlist.hpp"
#include "util/journal.hpp"  // crc32
#include "util/lanes.hpp"
#include "util/rng.hpp"

#ifndef RETSCAN_CIRCUITS_DIR
#define RETSCAN_CIRCUITS_DIR "bench/circuits"
#endif

namespace retscan {
namespace {

const char* const kCircuits[] = {"c17.v", "s27.v", "mul880.v"};

Netlist load_circuit(const std::string& file) {
  return Netlist::from_verilog(std::string(RETSCAN_CIRCUITS_DIR) + "/" + file);
}

std::vector<std::uint32_t> source_slots(const CompiledNetlist& compiled) {
  std::vector<bool> written(compiled.slot_count(), false);
  for (const CompiledInstr& in : compiled.instrs()) {
    written[in.out] = true;
  }
  std::vector<std::uint32_t> sources;
  for (std::uint32_t s = 0; s < compiled.slot_count(); ++s) {
    if (!written[s]) {
      sources.push_back(s);
    }
  }
  return sources;
}

std::string serialize(const CompiledNetlist& compiled, std::uint64_t fp) {
  std::ostringstream out(std::ios::binary);
  write_compiled_artifact(out, compiled, fp);
  return out.str();
}

std::shared_ptr<const CompiledNetlist> deserialize(const std::string& image,
                                                   const Netlist& netlist) {
  std::istringstream in(image, std::ios::binary);
  return read_compiled_artifact(in, netlist);
}

/// The named field carried by a rejection, for exact-match assertions.
std::string rejection_field(const std::string& image, const Netlist& netlist) {
  try {
    deserialize(image, netlist);
  } catch (const Error& error) {
    const std::string what = error.what();
    const std::size_t open = what.find('(');
    const std::size_t close = what.find(')');
    if (open != std::string::npos && close != std::string::npos) {
      return what.substr(open + 1, close - open - 1);
    }
    return what;
  }
  return "";  // accepted
}

std::string fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(ArtifactFingerprint, IsAPureFunctionOfStructure) {
  for (const char* file : kCircuits) {
    EXPECT_EQ(netlist_structure_fingerprint(load_circuit(file)),
              netlist_structure_fingerprint(load_circuit(file)))
        << file;
  }
  EXPECT_NE(netlist_structure_fingerprint(load_circuit("c17.v")),
            netlist_structure_fingerprint(load_circuit("s27.v")));
  EXPECT_NE(netlist_structure_fingerprint(load_circuit("s27.v")),
            netlist_structure_fingerprint(load_circuit("mul880.v")));
}

/// compile → save → load: the loaded stream must be indistinguishable from
/// the fresh compile — same shape, same slot mapping, and bit-identical
/// eval_full results on random stimuli.
TEST(ArtifactRoundTrip, EvalFullBitIdenticalOnVendoredCircuits) {
  Rng rng(7);
  for (const char* file : kCircuits) {
    const Netlist nl = load_circuit(file);
    const CompiledNetlist compiled(nl);
    const std::uint64_t fp = netlist_structure_fingerprint(nl);
    const auto loaded = deserialize(serialize(compiled, fp), nl);
    ASSERT_NE(loaded, nullptr) << file;

    ASSERT_EQ(loaded->slot_count(), compiled.slot_count()) << file;
    ASSERT_EQ(loaded->instrs().size(), compiled.instrs().size()) << file;
    ASSERT_EQ(loaded->level_count(), compiled.level_count()) << file;
    ASSERT_EQ(loaded->domain_count(), compiled.domain_count()) << file;
    for (std::uint32_t s = 0; s < compiled.slot_count(); ++s) {
      ASSERT_EQ(loaded->net_of_slot(s), compiled.net_of_slot(s)) << file;
    }

    const std::vector<std::uint32_t> sources = source_slots(compiled);
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<LaneWord> original(compiled.slot_count());
      std::vector<LaneWord> roundtrip(compiled.slot_count());
      for (const std::uint32_t s : sources) {
        original[s] = roundtrip[s] = rng.next_u64();
      }
      compiled.eval_full(original.data());
      loaded->eval_full(roundtrip.data());
      for (std::uint32_t s = 0; s < compiled.slot_count(); ++s) {
        ASSERT_EQ(roundtrip[s], original[s])
            << file << " trial " << trial << " slot " << s;
      }
    }
  }
}

/// The loaded reader CSR must drive eval_event exactly like the fresh
/// compile's: event settles on the loaded stream must match full sweeps of
/// the original across randomized dirty sets.
TEST(ArtifactRoundTrip, EvalEventBitIdenticalOnVendoredCircuits) {
  Rng rng(11);
  for (const char* file : kCircuits) {
    const Netlist nl = load_circuit(file);
    const CompiledNetlist compiled(nl);
    const std::uint64_t fp = netlist_structure_fingerprint(nl);
    const auto loaded = deserialize(serialize(compiled, fp), nl);
    ASSERT_NE(loaded, nullptr) << file;

    const std::vector<std::uint32_t> sources = source_slots(compiled);
    ASSERT_FALSE(sources.empty()) << file;
    std::vector<LaneWord> oracle(compiled.slot_count());
    std::vector<LaneWord> event(compiled.slot_count());
    for (const std::uint32_t s : sources) {
      oracle[s] = event[s] = rng.next_u64();
    }
    compiled.eval_full(oracle.data());
    loaded->eval_full(event.data());

    CompiledNetlist::EventWorkspace ws;
    for (int settle = 0; settle < 20; ++settle) {
      std::vector<std::uint32_t> dirty;
      const std::size_t changes = 1 + rng.next_below(sources.size());
      for (std::size_t c = 0; c < changes; ++c) {
        const std::uint32_t s = sources[rng.next_below(sources.size())];
        const LaneWord value = rng.next_u64();
        if (event[s] != value) {
          event[s] = value;
          oracle[s] = value;
          dirty.push_back(s);
        }
      }
      compiled.eval_full(oracle.data());
      const auto result = loaded->eval_event(
          dirty, ws, loaded->instrs().size(), [&](const CompiledInstr& in) {
            const LaneWord value =
                CompiledNetlist::eval_instr(in, event.data());
            if (event[in.out] == value) {
              return false;
            }
            event[in.out] = value;
            return true;
          });
      ASSERT_FALSE(result.fell_back) << file;
      for (std::uint32_t s = 0; s < compiled.slot_count(); ++s) {
        ASSERT_EQ(event[s], oracle[s]) << file << " settle " << settle
                                       << " slot " << s;
      }
    }
  }
}

// Image layout, mirrored from sim/artifact_store.cpp: a header of 4 u32 +
// 6 u64 + its u32 CRC, then the body, then the body's u32 CRC.
constexpr std::size_t kHeaderBytes = 4 * 4 + 6 * 8 + 4;
constexpr std::size_t kInstrBytes = 5 * 4 + 2 + 1;
constexpr std::size_t kSlotCountOffset = 4 * 4 + 8;

void put_u32(std::string& image, std::size_t offset, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    image[offset + i] = static_cast<char>(value >> (8 * i));
  }
}

/// Recompute both CRCs, so only the structural checks can catch a change.
void repair_crcs(std::string& image) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(image.data());
  put_u32(image, kHeaderBytes - 4, crc32(bytes, kHeaderBytes - 4));
  put_u32(image, image.size() - 4,
          crc32(bytes + kHeaderBytes, image.size() - kHeaderBytes - 4));
}

/// Every corruption class is rejected by its named field: truncation,
/// garbage, bit flips in each header field, a foreign netlist, body
/// tampering — including tampering that repairs the CRCs but leaves an
/// out-of-range opcode, slot index or header count.
TEST(ArtifactRejection, NamesTheFailingField) {
  const Netlist nl = load_circuit("s27.v");
  const CompiledNetlist compiled(nl);
  const std::uint64_t fp = netlist_structure_fingerprint(nl);
  const std::string image = serialize(compiled, fp);
  ASSERT_EQ(rejection_field(image, nl), "");  // pristine image loads

  EXPECT_EQ(rejection_field("", nl), "header size");
  EXPECT_EQ(rejection_field(image.substr(0, 20), nl), "header size");
  EXPECT_EQ(rejection_field(image.substr(0, image.size() - 5), nl),
            "body size");
  EXPECT_EQ(rejection_field(image + "x", nl), "body size");

  std::string bad = image;
  bad[0] ^= 0x40;  // magic
  EXPECT_EQ(rejection_field(bad, nl), "magic");

  bad = image;
  bad[4] ^= 0x02;  // format version
  EXPECT_EQ(rejection_field(bad, nl), "format");

  bad = image;
  bad[8] ^= 0x01;  // lane_words fingerprint of the writing build
  EXPECT_EQ(rejection_field(bad, nl), "lane_words");

  bad = image;
  bad[12] ^= 0x01;  // reserved word — only the header CRC notices
  EXPECT_EQ(rejection_field(bad, nl), "header crc");

  // A valid artifact for a *different* netlist structure.
  const Netlist c17 = load_circuit("c17.v");
  EXPECT_EQ(rejection_field(image, c17), "netlist_fingerprint");

  bad = image;
  bad[bad.size() / 2] ^= 0x10;  // body bit flip
  EXPECT_EQ(rejection_field(bad, nl), "body crc");

  // Adversarial body: flip the first instruction's opcode to garbage and
  // REPAIR the body CRC — structural validation must still reject it.
  const std::size_t slots = compiled.slot_count();
  const std::size_t first_instr = kHeaderBytes + slots * 8;
  bad = image;
  bad[first_instr + 22] = static_cast<char>(0xEE);
  repair_crcs(bad);
  EXPECT_EQ(rejection_field(bad, nl), "instr op");

  // An operand slot far outside the value array (eval_full would read out
  // of bounds).
  const CompiledNetlist c17_compiled(c17);
  bad = serialize(c17_compiled, netlist_structure_fingerprint(c17));
  put_u32(bad, kHeaderBytes + c17_compiled.slot_count() * 8, 0x00F00000);
  repair_crcs(bad);
  EXPECT_EQ(rejection_field(bad, c17), "instr in0");

  // A slot count of 2^62 wraps the body size back to the image's size once
  // the slot arrays (and all but one reader offset) are dropped.
  bad = image;
  const std::size_t instrs = compiled.instrs().size();
  const std::size_t offsets = kHeaderBytes + slots * 8 + instrs * (kInstrBytes + 4);
  bad.erase(offsets, slots * 4);
  bad.erase(kHeaderBytes, slots * 8);
  put_u32(bad, kSlotCountOffset, 0);
  put_u32(bad, kSlotCountOffset + 4, 1u << 30);
  repair_crcs(bad);
  EXPECT_EQ(rejection_field(bad, nl), "body size");
}

TEST(ArtifactStore, MissStoreHitAndRejectRecompile) {
  const std::string dir = fresh_dir("artifact_store_basic");
  CompiledArtifactStore store(dir);
  const Netlist nl = load_circuit("c17.v");
  const std::uint64_t fp = netlist_structure_fingerprint(nl);

  EXPECT_EQ(store.load(nl), nullptr);
  EXPECT_EQ(store.stats().misses, 1u);

  const auto compiled = store.load_or_compile(nl);  // miss → compile → store
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(store.stats().misses, 2u);
  EXPECT_EQ(store.stats().stored, 1u);
  EXPECT_TRUE(std::filesystem::exists(store.artifact_path(fp)));

  const auto hit = store.load(nl);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(hit->instrs().size(), compiled->instrs().size());

  // Corrupt the file on disk: load must reject (counted) and
  // load_or_compile must fall back to a fresh compile, then overwrite the
  // bad artifact with a good one.
  {
    std::ofstream out(store.artifact_path(fp), std::ios::binary);
    out << "not an artifact";
  }
  EXPECT_EQ(store.load(nl), nullptr);
  EXPECT_EQ(store.stats().rejected, 1u);
  const auto recompiled = store.load_or_compile(nl);
  ASSERT_NE(recompiled, nullptr);
  EXPECT_EQ(recompiled->instrs().size(), compiled->instrs().size());
  EXPECT_EQ(store.stats().rejected, 2u);
  EXPECT_EQ(store.stats().stored, 2u);
  ASSERT_NE(store.load(nl), nullptr);  // healed
}

/// The process-global hook: with a store installed, Netlist::compiled()
/// persists on first compile and warm-starts the next netlist instance —
/// and the warm stream is bit-identical under eval_full.
TEST(ArtifactStore, InstalledStoreBacksNetlistCompiled) {
  const std::string dir = fresh_dir("artifact_store_global");
  install_artifact_store(std::make_shared<CompiledArtifactStore>(dir));

  Netlist cold = load_circuit("s27.v");
  const auto cold_compiled = cold.compiled();
  auto store = installed_artifact_store();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->stats().stored, 1u);
  EXPECT_EQ(store->stats().hits, 0u);

  Netlist warm = load_circuit("s27.v");
  const auto warm_compiled = warm.compiled();
  EXPECT_EQ(store->stats().hits, 1u);

  Rng rng(3);
  const std::vector<std::uint32_t> sources = source_slots(*cold_compiled);
  std::vector<LaneWord> a(cold_compiled->slot_count());
  std::vector<LaneWord> b(warm_compiled->slot_count());
  ASSERT_EQ(a.size(), b.size());
  for (const std::uint32_t s : sources) {
    a[s] = b[s] = rng.next_u64();
  }
  cold_compiled->eval_full(a.data());
  warm_compiled->eval_full(b.data());
  EXPECT_EQ(a, b);

  install_artifact_store(nullptr);  // don't leak into other tests
}

}  // namespace
}  // namespace retscan
