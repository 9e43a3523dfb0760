#include "scan/scan_insert.hpp"

#include <string>

#include "util/error.hpp"

namespace retscan {

std::size_t ScanChains::length() const {
  RETSCAN_CHECK(!chains.empty(), "ScanChains::length: no chains");
  const std::size_t l = chains.front().size();
  for (const auto& chain : chains) {
    RETSCAN_CHECK(chain.size() == l, "ScanChains::length: chains have unequal length");
  }
  return l;
}

std::size_t ScanChains::flop_count() const {
  std::size_t total = 0;
  for (const auto& chain : chains) {
    total += chain.size();
  }
  return total;
}

std::pair<std::size_t, std::size_t> ScanChains::locate(CellId flop) const {
  const auto it = position_of.find(flop);
  RETSCAN_CHECK(it != position_of.end(), "ScanChains::locate: flop not in any chain");
  return it->second;
}

CellId ScanChains::at(std::size_t chain, std::size_t position) const {
  RETSCAN_CHECK(chain < chains.size(), "ScanChains::at: bad chain");
  RETSCAN_CHECK(position < chains[chain].size(), "ScanChains::at: bad position");
  return chains[chain][position];
}

ScanChains insert_scan(Netlist& netlist, const ScanInsertionOptions& options) {
  RETSCAN_CHECK(options.chain_count >= 1, "insert_scan: need at least one chain");

  // Move the pre-existing design into the gated domain before adding
  // always-on ports.
  const std::size_t pre_existing = netlist.cell_count();
  for (CellId id = 0; id < pre_existing; ++id) {
    netlist.set_domain(id, kGatedDomain);
  }

  const std::vector<CellId> flops = netlist.flops();
  RETSCAN_CHECK(!flops.empty(), "insert_scan: design has no flip-flops");
  for (const CellId flop : flops) {
    RETSCAN_CHECK(netlist.cell(flop).type == CellType::Dff,
                  "insert_scan: design already contains scan flops");
  }
  const std::size_t w = options.chain_count;
  RETSCAN_CHECK(w <= flops.size(), "insert_scan: more chains than flops");
  RETSCAN_CHECK(flops.size() % w == 0,
                "insert_scan: flop count not divisible by chain count");

  ScanChains result;
  result.se = netlist.add_input("se");
  if (options.style == ScanStyle::Retention) {
    result.retain = netlist.add_input("retain");
  }

  // Partition flops into chains.
  result.chains.assign(w, {});
  const std::size_t length = flops.size() / w;
  for (std::size_t i = 0; i < flops.size(); ++i) {
    const std::size_t chain =
        options.assignment == ChainAssignment::Blocked ? i / length : i % w;
    result.chains[chain].push_back(flops[i]);
  }

  // Convert flops and stitch. Conversion preserves each flop's output net,
  // so downstream functional logic is untouched.
  const CellType new_type =
      options.style == ScanStyle::Retention ? CellType::Rdff : CellType::Sdff;
  for (std::size_t c = 0; c < w; ++c) {
    const NetId si = netlist.add_input("si" + std::to_string(c));
    result.si.push_back(si);
    NetId prev_q = si;
    for (std::size_t p = 0; p < result.chains[c].size(); ++p) {
      const CellId flop = result.chains[c][p];
      std::vector<NetId> extra_pins = {prev_q, result.se};
      if (options.style == ScanStyle::Retention) {
        extra_pins.push_back(result.retain);
      }
      netlist.convert_flop(flop, new_type, extra_pins);
      netlist.set_domain(flop, kGatedDomain);
      result.position_of[flop] = {c, p};
      prev_q = netlist.output_of(flop);
    }
    result.so.push_back(prev_q);
    netlist.add_output("so" + std::to_string(c), prev_q);
  }
  return result;
}

std::size_t TestModeConfig::concatenated_length(std::size_t chain_length) const {
  RETSCAN_CHECK(!groups.empty(), "TestModeConfig: empty");
  return groups.front().size() * chain_length;
}

TestModeConfig make_test_concatenation(std::size_t chain_count, std::size_t test_width) {
  RETSCAN_CHECK(test_width >= 1 && test_width <= chain_count,
                "make_test_concatenation: test width out of range");
  RETSCAN_CHECK(chain_count % test_width == 0,
                "make_test_concatenation: chain count not divisible by test width");
  TestModeConfig config;
  config.test_width = test_width;
  config.groups.assign(test_width, {});
  for (std::size_t g = 0; g < test_width; ++g) {
    for (std::size_t c = g; c < chain_count; c += test_width) {
      config.groups[g].push_back(c);
    }
  }
  return config;
}

}  // namespace retscan
