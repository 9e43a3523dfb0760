#include "core/controller_gen.hpp"

#include <string>
#include <vector>

#include "util/error.hpp"

namespace retscan {

namespace {

/// Wake-up wait for the rail to settle, in cycles.
constexpr std::size_t kSettleCycles = 4;

/// One-hot state indices; Active is implicit (all flops zero).
enum State : std::size_t {
  kClrE = 0,
  kEnc,
  kCapture,
  kSave,
  kSleep,
  kWake,
  kRestore,
  kClrD,
  kDec,
  kCompare,
  kCheck,
  kError,
  kStateCount,
};

std::size_t bits_for_count(std::size_t count) {
  std::size_t bits = 1;
  while ((std::size_t{1} << bits) < count) {
    ++bits;
  }
  return bits;
}

NetId equals_const(Netlist& nl, const std::vector<NetId>& x, std::size_t value) {
  std::vector<NetId> terms;
  terms.reserve(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    terms.push_back(((value >> i) & 1u) ? x[i] : nl.n_not(x[i]));
  }
  return nl.n_and_tree(terms);
}

}  // namespace

PgControllerPorts build_pg_controller(Netlist& nl, const PgControllerSpec& spec,
                                      NetId error_flag, NetId se_net, NetId retain_net,
                                      const MonitorControls& controls) {
  RETSCAN_CHECK(spec.chain_length >= 1, "build_pg_controller: chain_length >= 1");

  PgControllerPorts ports;
  ports.sleep = nl.add_input("sleep");

  // --- state register (one-hot, Active implicit) ------------------------
  std::vector<CellId> state_ff(kStateCount);
  std::vector<NetId> s(kStateCount);
  for (std::size_t i = 0; i < kStateCount; ++i) {
    const NetId dummy = nl.add_net();
    state_ff[i] = nl.add_cell(CellType::Dff, {dummy}, "pgc_s" + std::to_string(i));
    s[i] = nl.output_of(state_ff[i]);
  }
  const NetId active = nl.n_not(nl.n_or_tree(s));

  // --- pass/settle counter ----------------------------------------------
  const std::size_t span = std::max(spec.chain_length, kSettleCycles);
  const std::size_t cbits = bits_for_count(span + 1);
  std::vector<CellId> cnt_ff(cbits);
  std::vector<NetId> cnt(cbits);
  for (std::size_t i = 0; i < cbits; ++i) {
    const NetId dummy = nl.add_net();
    cnt_ff[i] = nl.add_cell(CellType::Dff, {dummy}, "pgc_cnt" + std::to_string(i));
    cnt[i] = nl.output_of(cnt_ff[i]);
  }
  const NetId counting = nl.n_or(nl.n_or(s[kEnc], s[kDec]), s[kWake]);
  {
    NetId carry = nl.n_const(true);
    for (std::size_t i = 0; i < cbits; ++i) {
      const NetId incremented = nl.n_xor(cnt[i], carry);
      if (i + 1 < cbits) {
        carry = nl.n_and(cnt[i], carry);
      }
      // Hold-at-zero when not counting.
      nl.rewire_fanin(cnt_ff[i], 0, nl.n_and(counting, incremented));
    }
  }
  const NetId pass_done = equals_const(nl, cnt, spec.chain_length - 1);
  const NetId settle_done = equals_const(nl, cnt, kSettleCycles - 1);

  // --- recheck flag (second decode pass after a correction) --------------
  const NetId recheck_dummy = nl.add_net();
  const CellId recheck_ff = nl.add_cell(CellType::Dff, {recheck_dummy}, "pgc_recheck");
  const NetId recheck = nl.output_of(recheck_ff);

  const NetId err = error_flag;
  const NetId check_err = nl.n_and(s[kCheck], err);
  const NetId check_clean = nl.n_and(s[kCheck], nl.n_not(err));
  const NetId recheck_set =
      spec.can_correct ? nl.n_and(check_err, nl.n_not(recheck)) : nl.n_const(false);
  const NetId to_error =
      spec.can_correct ? nl.n_and(check_err, recheck) : check_err;
  // Hold through the correction pass; clear when returning to Active or
  // latching the error state.
  nl.rewire_fanin(recheck_ff, 0,
                  nl.n_and(nl.n_or(recheck_set, recheck),
                           nl.n_not(nl.n_or(check_clean, to_error))));

  // --- transition network -------------------------------------------------
  std::vector<NetId> next(kStateCount);
  next[kClrE] = nl.n_and(active, ports.sleep);
  next[kEnc] = nl.n_or(s[kClrE], nl.n_and(s[kEnc], nl.n_not(pass_done)));
  const NetId enc_done = nl.n_and(s[kEnc], pass_done);
  if (spec.has_crc) {
    next[kCapture] = enc_done;
    next[kSave] = s[kCapture];
  } else {
    next[kCapture] = nl.n_const(false);
    next[kSave] = enc_done;
  }
  next[kSleep] = nl.n_or(s[kSave], nl.n_and(s[kSleep], ports.sleep));
  next[kWake] = nl.n_or(nl.n_and(s[kSleep], nl.n_not(ports.sleep)),
                        nl.n_and(s[kWake], nl.n_not(settle_done)));
  next[kRestore] = nl.n_and(s[kWake], settle_done);
  next[kClrD] = nl.n_or(s[kRestore], recheck_set);
  next[kDec] = nl.n_or(s[kClrD], nl.n_and(s[kDec], nl.n_not(pass_done)));
  const NetId dec_done = nl.n_and(s[kDec], pass_done);
  if (spec.has_crc) {
    next[kCompare] = dec_done;
    next[kCheck] = s[kCompare];
  } else {
    next[kCompare] = nl.n_const(false);
    next[kCheck] = dec_done;
  }
  next[kError] = nl.n_or(to_error, s[kError]);
  for (std::size_t i = 0; i < kStateCount; ++i) {
    nl.rewire_fanin(state_ff[i], 0, next[i]);
  }

  // --- output decode, bound onto the pre-created control nets ------------
  auto bind = [&nl](NetId value, NetId target) {
    nl.add_cell_bound(CellType::Buf, {value}, target);
  };
  const NetId shifting = nl.n_or(s[kEnc], s[kDec]);
  bind(shifting, se_net);
  bind(shifting, controls.mon_en);
  bind(s[kDec], controls.mon_decode);
  bind(nl.n_or(s[kClrE], s[kClrD]), controls.mon_clear);
  bind(spec.has_crc ? s[kCapture] : nl.n_const(false), controls.sig_capture);
  bind(spec.has_crc ? s[kCompare] : nl.n_const(false), controls.sig_compare);
  bind(nl.n_or(nl.n_or(s[kSave], s[kSleep]), s[kWake]), retain_net);

  ports.pswitch_en = nl.n_not(s[kSleep]);
  ports.ctrl_active = active;
  ports.ctrl_error = s[kError];
  nl.add_output("pswitch_en", ports.pswitch_en);
  nl.add_output("ctrl_active", ports.ctrl_active);
  nl.add_output("ctrl_error", ports.ctrl_error);
  return ports;
}

}  // namespace retscan
