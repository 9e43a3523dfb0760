#include "retscan/session.hpp"

#include <string>

#include "atpg/atpg.hpp"
#include "circuits/fifo.hpp"
#include "netlist/lint.hpp"
#include "netlist/verilog_reader.hpp"
#include "util/error.hpp"

namespace retscan {

namespace {

/// The primary inputs a capture pattern must hold quiescent: scan-enable,
/// retention and every monitor control. Designs built with the hardware
/// controller own some of these internally (they are nets, not ports), so
/// each is constrained only where it exists as a primary input.
constexpr const char* kCaptureControls[] = {
    "se",        "retain",      "mon_en",      "mon_decode",
    "mon_clear", "sig_capture", "sig_compare", "test_mode",
};

/// Geometry sanity with actionable messages, paid at Session construction
/// (before any synthesis) so a misconfigured spec fails fast.
void check_geometry(std::size_t flops, const ProtectionConfig& protection) {
  RETSCAN_CHECK(protection.chain_count > 0,
                "Session: ProtectionConfig.chain_count must be > 0 — a protected "
                "design needs at least one retention scan chain");
  RETSCAN_CHECK(flops > 0, "Session: the base design has no flip-flops to protect");
  if (flops % protection.chain_count != 0) {
    throw Error("Session: " + std::to_string(flops) +
                " flip-flops cannot split into " +
                std::to_string(protection.chain_count) +
                " equal scan chains; pick a chain_count dividing the flop count");
  }
}

}  // namespace

Session::Session(const FifoSpec& fifo, const ProtectionConfig& protection,
                 const SessionOptions& options)
    : options_(options), protection_(protection), fifo_(fifo), has_fifo_(true) {
  check_geometry(fifo.flop_count(), protection);
}

Session::Session(Netlist base, const ProtectionConfig& protection,
                 const SessionOptions& options)
    : options_(options), protection_(protection) {
  check_geometry(base.flops().size(), protection);
  base_.emplace(std::move(base));
}

Session::Session(BareTag, Netlist base, const SessionOptions& options)
    : options_(options), protected_(false) {
  base_.emplace(std::move(base));
}

Session Session::unprotected(Netlist base, const SessionOptions& options) {
  return Session(BareTag{}, std::move(base), options);
}

Session Session::from_verilog(const std::string& path,
                              const ProtectionConfig& protection,
                              const SessionOptions& options) {
  Netlist imported = Netlist::from_verilog(path);
  // The parser already guarantees driven nets and acyclic logic; the lint
  // pass adds the structural checks a synthesis handoff would insist on.
  // Dangling/unreachable logic and floating inputs (e.g. an unread clock
  // port) are tolerated — they waste area but simulate fine.
  const std::vector<LintIssue> issues = lint_netlist(imported);
  std::string hard;
  for (const LintIssue& issue : issues) {
    if (issue.kind == LintKind::UndrivenNet || issue.kind == LintKind::CombinationalLoop) {
      hard += (hard.empty() ? "" : "; ") + issue.message;
    }
  }
  if (!hard.empty()) {
    throw Error("Session::from_verilog: " + path + " fails lint: " + hard);
  }
  if (imported.flops().empty()) {
    return unprotected(std::move(imported), options);
  }
  return Session(std::move(imported), protection, options);
}

Session::~Session() = default;
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;

const FifoSpec& Session::fifo() const {
  RETSCAN_CHECK(has_fifo_,
                "Session::fifo: this session wraps an arbitrary netlist, not a "
                "FIFO — construct it from a FifoSpec to run validation campaigns");
  return fifo_;
}

const ProtectedDesign& Session::design() {
  if (!protected_) {
    throw Error(
        "Session::design: this is a bare session (unprotected netlist import) "
        "— there is no protection architecture to synthesize; construct the "
        "Session with a ProtectionConfig over a flop-bearing netlist for "
        "scan/retention workloads");
  }
  if (!design_) {
    Netlist base = has_fifo_ ? make_fifo(fifo_) : std::move(*base_);
    base_.reset();
    design_ = std::make_unique<ProtectedDesign>(std::move(base), protection_);
  }
  return *design_;
}

const Netlist& Session::netlist() {
  return protected_ ? design().netlist() : *base_;
}

CombinationalFrame& Session::frame() {
  if (!frame_) {
    const Netlist& nl = netlist();
    frame_ = std::make_unique<CombinationalFrame>(nl);
    // Capture constraints only apply to the protected fabric's control
    // inputs; a bare netlist's ports are all fair game for ATPG (an imported
    // design may even name a port "se" — it is not ours to pin).
    if (protected_) {
      for (const char* name : kCaptureControls) {
        if (!nl.has_net(name)) {
          continue;
        }
        const NetId net = nl.find_net(name);
        for (const NetId pi : frame_->pi_nets()) {
          if (pi == net) {
            frame_->constrain(name, false);
            break;
          }
        }
      }
    }
  }
  return *frame_;
}

const std::vector<Fault>& Session::faults() {
  if (!faults_) {
    faults_ = std::make_unique<std::vector<Fault>>(
        collapse_faults(netlist(), enumerate_faults(netlist())));
  }
  return *faults_;
}

RetentionSession& Session::retention() {
  if (!retention_) {
    retention_ = std::make_unique<RetentionSession>(design());
  }
  return *retention_;
}

parallel::CampaignRunner& Session::runner() {
  if (!runner_) {
    parallel::CampaignOptions options;
    options.threads = options_.threads;
    runner_ = std::make_unique<parallel::CampaignRunner>(options);
  }
  return *runner_;
}

unsigned Session::threads() const {
  if (runner_) {
    return runner_->threads();
  }
  return options_.threads != 0 ? options_.threads
                               : ThreadPool::default_thread_count();
}

CampaignResult Session::run(const CampaignSpec& spec) {
  return ::retscan::run(*this, spec);
}

// Session::run_scan_test is defined in campaign.cpp, beside the scan-test
// campaign route that shares its delivery.

AtpgResult Session::run_atpg(const AtpgOptions& options) {
  return ::retscan::run_atpg(frame(), faults(), options);
}

}  // namespace retscan
