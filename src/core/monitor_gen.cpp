#include "core/monitor_gen.hpp"

#include <string>

#include "coding/crc.hpp"
#include "util/error.hpp"

namespace retscan {

namespace {

/// An l-deep, width-wide always-on shift memory with write/recirculate
/// muxing: tail <= (recirculate ? head : fresh) when enabled, every other
/// stage shifts toward the head. Returns the head nets (oldest entry).
struct ShiftMemory {
  std::vector<NetId> head;
};

ShiftMemory build_shift_memory(Netlist& nl, std::size_t depth, std::size_t width,
                               const std::vector<NetId>& fresh, NetId recirculate,
                               NetId enable) {
  RETSCAN_CHECK(fresh.size() == width, "build_shift_memory: width mismatch");
  ShiftMemory mem;
  mem.head.resize(width);
  for (std::size_t b = 0; b < width; ++b) {
    // Create the stage flops first so stage i can read stage i+1's output.
    std::vector<CellId> stages(depth);
    std::vector<NetId> q(depth);
    for (std::size_t i = 0; i < depth; ++i) {
      const NetId dummy = nl.add_net();
      stages[i] = nl.add_cell(CellType::Dff, {dummy});
      q[i] = nl.output_of(stages[i]);
    }
    for (std::size_t i = 0; i < depth; ++i) {
      const NetId shifted_in =
          (i + 1 < depth) ? q[i + 1] : nl.n_mux(recirculate, fresh[b], q[0]);
      nl.rewire_fanin(stages[i], 0, nl.n_mux(enable, q[i], shifted_in));
    }
    mem.head[b] = q[0];
  }
  return mem;
}

/// Sticky error flag: q <= clear ? 0 : (q | set).
NetId build_sticky_flag(Netlist& nl, NetId set, NetId clear) {
  const NetId dummy = nl.add_net();
  const CellId flag = nl.add_cell(CellType::Dff, {dummy}, "mon_err_ff");
  const NetId q = nl.output_of(flag);
  nl.rewire_fanin(flag, 0, nl.n_and(nl.n_not(clear), nl.n_or(q, set)));
  return q;
}

}  // namespace

MonitorBuildResult build_hamming_monitors(Netlist& nl, const ScanChains& chains,
                                          const HammingCode& code,
                                          const MonitorControls& controls,
                                          bool extended) {
  const std::size_t w = chains.chain_count();
  const std::size_t l = chains.length();
  const std::size_t k = code.k();
  const std::size_t r = code.r();
  RETSCAN_CHECK(w % k == 0, "build_hamming_monitors: chain count must be a multiple of k");
  const std::size_t groups = w / k;
  const std::size_t mem_width = r + (extended ? 1 : 0);

  MonitorBuildResult result;
  result.first_monitor_cell = static_cast<CellId>(nl.cell_count());
  result.feedback.resize(w);

  std::vector<NetId> group_errors;
  group_errors.reserve(groups);
  const NetId decoding = nl.n_and(controls.mon_en, controls.mon_decode);

  for (std::size_t g = 0; g < groups; ++g) {
    // Parity generator: r XOR trees over the group's scan-out bits, plus
    // one overall-parity tree for SEC-DED.
    std::vector<NetId> parity(mem_width);
    for (std::size_t b = 0; b < r; ++b) {
      std::vector<NetId> terms;
      for (std::size_t j = 0; j < k; ++j) {
        if ((code.data_position(j) >> b) & 1u) {
          terms.push_back(chains.so[g * k + j]);
        }
      }
      parity[b] = nl.n_xor_tree(terms);
    }
    if (extended) {
      std::vector<NetId> all(chains.so.begin() + g * k, chains.so.begin() + (g + 1) * k);
      parity[r] = nl.n_xor_tree(all);
    }

    // Always-on parity memory: stores during encode, recirculates during
    // decode so repeated decode passes see the same parity stream.
    const ShiftMemory mem = build_shift_memory(nl, l, mem_width, parity,
                                               controls.mon_decode, controls.mon_en);

    // Syndrome = recomputed parity vs stored parity.
    std::vector<NetId> syndrome(r), syndrome_n(r);
    for (std::size_t b = 0; b < r; ++b) {
      syndrome[b] = nl.n_xor(parity[b], mem.head[b]);
      syndrome_n[b] = nl.n_not(syndrome[b]);
    }
    NetId any_syndrome = nl.n_or_tree(syndrome);
    // SEC-DED: correct only when the overall parity also mismatches
    // (odd-weight error); a nonzero syndrome with even overall parity is a
    // flagged double error.
    NetId correct_enable = decoding;
    if (extended) {
      const NetId overall_mismatch = nl.n_xor(parity[r], mem.head[r]);
      correct_enable = nl.n_and(decoding, overall_mismatch);
      any_syndrome = nl.n_or(any_syndrome, overall_mismatch);
    }
    group_errors.push_back(nl.n_and(any_syndrome, decoding));

    // Syndrome decoder + corrector: flip the named data bit on its way back
    // into the scan-in stream.
    for (std::size_t j = 0; j < k; ++j) {
      const unsigned position = code.data_position(j);
      std::vector<NetId> literals;
      literals.reserve(r);
      for (std::size_t b = 0; b < r; ++b) {
        literals.push_back(((position >> b) & 1u) ? syndrome[b] : syndrome_n[b]);
      }
      const NetId match = nl.n_and(nl.n_and_tree(literals), correct_enable);
      result.feedback[g * k + j] = nl.n_xor(chains.so[g * k + j], match);
    }
  }

  const NetId any_error = nl.n_or_tree(group_errors);
  result.error_flag = build_sticky_flag(nl, any_error, controls.mon_clear);
  return result;
}

MonitorBuildResult build_crc_monitors(Netlist& nl, const ScanChains& chains,
                                      const MonitorControls& controls) {
  const std::size_t w = chains.chain_count();
  const Crc16 crc = Crc16::ccitt();

  MonitorBuildResult result;
  result.first_monitor_cell = static_cast<CellId>(nl.cell_count());
  // Detection only: the feedback stream is the raw scan-out.
  result.feedback = chains.so;

  // Symbolic derivation of the parallel next-state: clock the serial LFSR
  // once per input bit (chain 0 first), tracking each state bit as an XOR
  // over 16 + w symbols. Symbol i (< 16) = state bit i, 16 + j = input bit j.
  const std::size_t symbols = 16 + w;
  std::vector<BitVec> state(16, BitVec(symbols));
  for (unsigned i = 0; i < 16; ++i) {
    state[i].set(i, true);
  }
  for (std::size_t j = 0; j < w; ++j) {
    BitVec feedback = state[15];
    feedback.flip(16 + j);
    for (unsigned i = 15; i >= 1; --i) {
      state[i] = state[i - 1];
      if ((crc.polynomial() >> i) & 1u) {
        state[i] ^= feedback;
      }
    }
    state[0] = (crc.polynomial() & 1u) ? feedback : BitVec(symbols);
  }

  // CRC state register.
  std::vector<CellId> crc_ff(16);
  std::vector<NetId> crc_q(16);
  for (unsigned i = 0; i < 16; ++i) {
    const NetId dummy = nl.add_net();
    crc_ff[i] = nl.add_cell(CellType::Dff, {dummy}, "crc0_" + std::to_string(i));
    crc_q[i] = nl.output_of(crc_ff[i]);
  }
  // Parallel next-state XOR networks.
  for (unsigned i = 0; i < 16; ++i) {
    std::vector<NetId> terms;
    for (unsigned s = 0; s < 16; ++s) {
      if (state[i].get(s)) {
        terms.push_back(crc_q[s]);
      }
    }
    for (std::size_t j = 0; j < w; ++j) {
      if (state[i].get(16 + j)) {
        terms.push_back(chains.so[j]);
      }
    }
    const NetId next = terms.empty() ? nl.n_const(false) : nl.n_xor_tree(terms);
    const NetId held = nl.n_mux(controls.mon_en, crc_q[i], next);
    nl.rewire_fanin(crc_ff[i], 0, nl.n_and(nl.n_not(controls.mon_clear), held));
  }

  // Signature register: captures the CRC at the end of the encode pass.
  std::vector<NetId> sig_q(16);
  for (unsigned i = 0; i < 16; ++i) {
    const NetId dummy = nl.add_net();
    const CellId sig = nl.add_cell(CellType::Dff, {dummy}, "sig0_" + std::to_string(i));
    sig_q[i] = nl.output_of(sig);
    nl.rewire_fanin(sig, 0, nl.n_mux(controls.sig_capture, sig_q[i], crc_q[i]));
  }

  // Mismatch = OR of bitwise XOR, gated by the compare strobe.
  std::vector<NetId> diff(16);
  for (unsigned i = 0; i < 16; ++i) {
    diff[i] = nl.n_xor(crc_q[i], sig_q[i]);
  }
  const NetId mismatch = nl.n_and(nl.n_or_tree(diff), controls.sig_compare);
  result.error_flag = build_sticky_flag(nl, mismatch, controls.mon_clear);
  return result;
}

void wire_scan_inputs(Netlist& nl, const ScanChains& chains,
                      const std::vector<NetId>& feedback,
                      const TestModeConfig& test_config, NetId test_mode) {
  const std::size_t w = chains.chain_count();
  RETSCAN_CHECK(feedback.size() == w, "wire_scan_inputs: feedback width mismatch");

  // Test-mode source per chain: the external tsi port for the first chain
  // of each group, the previous chain's scan-out otherwise.
  std::vector<NetId> test_source(w, kNullNet);
  for (std::size_t g = 0; g < test_config.groups.size(); ++g) {
    const auto& group = test_config.groups[g];
    RETSCAN_CHECK(!group.empty(), "wire_scan_inputs: empty test group");
    test_source[group.front()] = nl.add_input("tsi" + std::to_string(g));
    for (std::size_t i = 1; i < group.size(); ++i) {
      test_source[group[i]] = chains.so[group[i - 1]];
    }
    nl.add_output("tso" + std::to_string(g), chains.so[group.back()]);
  }

  for (std::size_t c = 0; c < w; ++c) {
    RETSCAN_CHECK(test_source[c] != kNullNet, "wire_scan_inputs: chain missing test source");
    const NetId si = nl.n_mux(test_mode, feedback[c], test_source[c]);
    // SI is pin 1 of Sdff/Rdff.
    nl.rewire_fanin(chains.chains[c].front(), 1, si);
  }
}

}  // namespace retscan
