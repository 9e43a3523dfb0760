#include "circuits/fifo.hpp"

#include <limits>
#include <string>

#include "util/error.hpp"

namespace retscan {

namespace {
bool is_power_of_two(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::size_t log2_exact(std::size_t v) {
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < v) {
    ++bits;
  }
  return bits;
}

/// Ripple increment: returns nets of x+1 (mod 2^n).
std::vector<NetId> increment(Netlist& nl, const std::vector<NetId>& x) {
  std::vector<NetId> out(x.size());
  NetId carry = nl.n_const(true);
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = nl.n_xor(x[i], carry);
    if (i + 1 < x.size()) {
      carry = nl.n_and(x[i], carry);
    }
  }
  return out;
}

/// Ripple decrement: returns nets of x-1 (mod 2^n).
std::vector<NetId> decrement(Netlist& nl, const std::vector<NetId>& x) {
  std::vector<NetId> out(x.size());
  NetId borrow = nl.n_const(true);
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = nl.n_xor(x[i], borrow);
    if (i + 1 < x.size()) {
      borrow = nl.n_and(nl.n_not(x[i]), borrow);
    }
  }
  return out;
}

/// Equality of a bus against a constant.
NetId equals_const(Netlist& nl, const std::vector<NetId>& x, std::size_t value) {
  std::vector<NetId> terms;
  terms.reserve(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const bool bit = (value >> i) & 1u;
    terms.push_back(bit ? x[i] : nl.n_not(x[i]));
  }
  return nl.n_and_tree(terms);
}
}  // namespace

std::size_t FifoSpec::pointer_bits() const { return log2_exact(depth); }
std::size_t FifoSpec::counter_bits() const { return log2_exact(depth) + 1; }
std::size_t FifoSpec::flop_count() const {
  RETSCAN_CHECK(is_power_of_two(depth) && depth >= 2,
                "fifo.depth must be a power of two >= 2, got " + std::to_string(depth));
  RETSCAN_CHECK(width >= 1, "fifo.width must be >= 1");
  const std::size_t control = 2 * pointer_bits() + counter_bits();
  RETSCAN_CHECK(width <= (std::numeric_limits<std::size_t>::max() - control) / depth,
                "fifo.depth x fifo.width overflows the flop count");
  return depth * width + control;
}

Netlist make_fifo(const FifoSpec& spec) {
  spec.flop_count();  // rejects a geometry this generator cannot build

  Netlist nl("fifo" + std::to_string(spec.depth) + "x" + std::to_string(spec.width));
  const std::size_t pbits = spec.pointer_bits();
  const std::size_t cbits = spec.counter_bits();

  const NetId wr_en = nl.add_input("wr_en");
  const NetId rd_en = nl.add_input("rd_en");
  std::vector<NetId> din(spec.width);
  for (std::size_t b = 0; b < spec.width; ++b) {
    din[b] = nl.add_input("din" + std::to_string(b));
  }

  // State registers: create flops first so their Q nets can feed the logic,
  // then rewire the D pins. Storage flops are created row-major
  // (word-by-word) so word w bit b is flop index w*width + b — the scan
  // inserter and testbench rely on this layout.
  auto make_state = [&nl](std::size_t count, const std::string& prefix) {
    std::vector<CellId> cells(count);
    std::vector<NetId> q(count);
    for (std::size_t i = 0; i < count; ++i) {
      const NetId dummy = nl.add_net();
      cells[i] = nl.add_cell(CellType::Dff, {dummy}, prefix + std::to_string(i));
      q[i] = nl.output_of(cells[i]);
    }
    return std::make_pair(cells, q);
  };

  auto [storage_cells, storage_q] = make_state(spec.depth * spec.width, "mem");
  auto [wp_cells, wp_q] = make_state(pbits, "wp");
  auto [rp_cells, rp_q] = make_state(pbits, "rp");
  auto [cnt_cells, cnt_q] = make_state(cbits, "cnt");

  // Status flags.
  const NetId full = equals_const(nl, cnt_q, spec.depth);
  const NetId empty = equals_const(nl, cnt_q, 0);
  nl.add_output("full", full);
  nl.add_output("empty", empty);

  const NetId wr_fire = nl.n_and(wr_en, nl.n_not(full));
  const NetId rd_fire = nl.n_and(rd_en, nl.n_not(empty));

  // Write-address decode: one enable per word.
  std::vector<NetId> word_we(spec.depth);
  for (std::size_t w = 0; w < spec.depth; ++w) {
    word_we[w] = nl.n_and(wr_fire, equals_const(nl, wp_q, w));
  }

  // Storage next-state: d = we ? din : q.
  for (std::size_t w = 0; w < spec.depth; ++w) {
    for (std::size_t b = 0; b < spec.width; ++b) {
      const std::size_t i = w * spec.width + b;
      const NetId d = nl.n_mux(word_we[w], storage_q[i], din[b]);
      nl.rewire_fanin(storage_cells[i], 0, d);
    }
  }

  // Pointer updates.
  const auto wp_plus1 = increment(nl, wp_q);
  for (std::size_t i = 0; i < pbits; ++i) {
    nl.rewire_fanin(wp_cells[i], 0, nl.n_mux(wr_fire, wp_q[i], wp_plus1[i]));
  }
  const auto rp_plus1 = increment(nl, rp_q);
  for (std::size_t i = 0; i < pbits; ++i) {
    nl.rewire_fanin(rp_cells[i], 0, nl.n_mux(rd_fire, rp_q[i], rp_plus1[i]));
  }

  // Occupancy counter: +1 on write-only, -1 on read-only, hold otherwise.
  const auto cnt_plus1 = increment(nl, cnt_q);
  const auto cnt_minus1 = decrement(nl, cnt_q);
  const NetId inc_only = nl.n_and(wr_fire, nl.n_not(rd_fire));
  const NetId dec_only = nl.n_and(rd_fire, nl.n_not(wr_fire));
  for (std::size_t i = 0; i < cbits; ++i) {
    const NetId after_inc = nl.n_mux(inc_only, cnt_q[i], cnt_plus1[i]);
    const NetId next = nl.n_mux(dec_only, after_inc, cnt_minus1[i]);
    nl.rewire_fanin(cnt_cells[i], 0, next);
  }

  // Read mux tree: dout[b] = storage[rp][b].
  for (std::size_t b = 0; b < spec.width; ++b) {
    std::vector<NetId> level(spec.depth);
    for (std::size_t w = 0; w < spec.depth; ++w) {
      level[w] = storage_q[w * spec.width + b];
    }
    // Fold pointer bits from LSB upward: at stage s, pairs differ in bit s.
    for (std::size_t s = 0; s < pbits; ++s) {
      std::vector<NetId> next_level(level.size() / 2);
      for (std::size_t i = 0; i < next_level.size(); ++i) {
        next_level[i] = nl.n_mux(rp_q[s], level[2 * i], level[2 * i + 1]);
      }
      level = std::move(next_level);
    }
    nl.add_output("dout" + std::to_string(b), level[0]);
  }

  return nl;
}

BitVec FifoModel::front() const {
  if (words_.empty()) {
    return BitVec(spec_.width);
  }
  return words_.front();
}

bool FifoModel::step(bool wr_en, bool rd_en, const BitVec& din) {
  RETSCAN_CHECK(din.size() == spec_.width, "FifoModel::step: wrong data width");
  const bool wr_fire = wr_en && !full();
  const bool rd_fire = rd_en && !empty();
  if (rd_fire) {
    words_.pop_front();
  }
  if (wr_fire) {
    words_.push_back(din);
  }
  return wr_fire;
}

}  // namespace retscan
