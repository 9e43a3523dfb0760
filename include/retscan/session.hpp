#pragma once

/// retscan public surface — the Session facade.
///
/// A Session owns one protected design and every expensive artifact built
/// from it — the gate-level ProtectedDesign, the capture-constrained
/// combinational frame (which compiles the netlist), the collapsed fault
/// list, the retention-session driver and the campaign thread pool — each
/// built on first use and shared across campaigns. Behavioral validation
/// campaigns never touch the gate level, so a Session is cheap until a
/// workload actually needs synthesis. It is the single entry point
/// examples, benches and services should program against; the per-engine
/// types it returns remain available for surgical work.

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "core/protected_design.hpp"
#include "parallel/campaign_runner.hpp"
#include "retscan/campaign.hpp"

namespace retscan {

struct SessionOptions {
  /// Worker threads for campaigns; 0 → RETSCAN_THREADS env
  /// override, else hardware_concurrency().
  unsigned threads = 0;
};

class Session {
 public:
  /// FIFO-backed session (the paper's case study): supports every campaign
  /// kind, including validation campaigns that need the behavioral golden
  /// FIFO model. Geometry is validated here (chain divisibility, non-zero
  /// counts); the gate-level design is synthesized on first use.
  Session(const FifoSpec& fifo, const ProtectionConfig& protection,
          const SessionOptions& options = {});

  /// Session over an arbitrary netlist: fault-coverage and scan-test
  /// campaigns plus direct retention-session access. Validation campaigns
  /// require the FIFO golden model and are rejected by validate() with an
  /// explanatory error.
  Session(Netlist base, const ProtectionConfig& protection,
          const SessionOptions& options = {});

  /// Session over an imported structural-Verilog netlist
  /// (Netlist::from_verilog). Lint issues that would make the import
  /// unusable (undriven nets, combinational cycles) are rejected here with
  /// the offending messages. Flop-bearing netlists are wrapped in the
  /// protection architecture like the Netlist constructor; combinational
  /// netlists have no state to retain, so `protection` does not apply and
  /// the session is *bare* (see unprotected()).
  static Session from_verilog(const std::string& path,
                              const ProtectionConfig& protection = {},
                              const SessionOptions& options = {});

  /// Bare session: wraps `base` with no protection architecture at all —
  /// no scan chains, no monitors, no retention flops. Supports exactly the
  /// coverage campaign kinds — fault-coverage, transition-delay and
  /// bridging (full-scan-assumed ATPG + packed fault simulation over the
  /// raw netlist), plus sequential-coverage for flop-bearing bases (no scan
  /// assumed at all); every other workload is rejected by validate() /
  /// design() with an explanatory error.
  static Session unprotected(Netlist base, const SessionOptions& options = {});

  ~Session();
  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- owned design artifacts -------------------------------------------
  /// The protected gate-level design (synthesized on first use). Throws for
  /// bare sessions, which have no protection architecture to synthesize.
  const ProtectedDesign& design();
  /// The session's gate-level netlist: the protected design's netlist, or
  /// the raw base netlist for bare sessions.
  const Netlist& netlist();
  const ScanChains& chains() { return design().chains(); }
  const ProtectionConfig& protection() const { return protection_; }
  /// False for bare sessions (unprotected() / combinational imports): no
  /// scan fabric, no monitors — coverage campaign kinds only.
  bool is_protected() const { return protected_; }
  bool has_fifo() const { return has_fifo_; }
  /// The FIFO geometry; only valid when has_fifo().
  const FifoSpec& fifo() const;

  /// Combinational scan frame with the standard capture constraints (scan
  /// and monitor controls held at 0) applied; built on first use. Building
  /// it compiles the netlist once; the compiled core is shared with every
  /// simulator the session creates afterwards.
  CombinationalFrame& frame();
  /// Collapsed stuck-at fault list of the protected netlist (cached).
  const std::vector<Fault>& faults();
  /// Scalar retention-session driver over the shared design (built on
  /// first use) — for hand-driven sleep/wake episodes.
  RetentionSession& retention();
  /// Campaign orchestrator owning the session's thread pool (built on
  /// first use with the session's thread count).
  parallel::CampaignRunner& runner();
  ThreadPool& pool() { return runner().pool(); }
  /// Resolved worker count (options.threads, else RETSCAN_THREADS env,
  /// else hardware_concurrency) — what runner() will be built with.
  unsigned threads() const;

  // --- unified entry points ---------------------------------------------
  /// Run a declarative campaign; equivalent to retscan::run(*this, spec).
  CampaignResult run(const CampaignSpec& spec);

  /// Deliver a pattern set through the design's Fig. 5(b) test-mode ports
  /// and check responses, sharding the 64-lane delivery across pool().
  /// The scan-test campaign kind runs this same delivery; the scalar
  /// deliver_scan_test is its oracle. Rejects bare
  /// sessions and designs with a hardware controller, whose se/retain
  /// ports no longer reach the chains.
  ScanTestResult run_scan_test(const std::vector<BitVec>& patterns,
                               const ScanTestOptions& options = {});

  /// Generate a pattern set on the session's frame and fault list.
  AtpgResult run_atpg(const AtpgOptions& options = {});

 private:
  struct BareTag {};
  Session(BareTag, Netlist base, const SessionOptions& options);

  SessionOptions options_;
  ProtectionConfig protection_;
  FifoSpec fifo_{};
  bool has_fifo_ = false;
  bool protected_ = true;
  std::optional<Netlist> base_;  ///< pending base until design() is built
                                 ///< (kept for good on bare sessions)
  std::unique_ptr<ProtectedDesign> design_;
  std::unique_ptr<CombinationalFrame> frame_;
  std::unique_ptr<std::vector<Fault>> faults_;
  std::unique_ptr<RetentionSession> retention_;
  std::unique_ptr<parallel::CampaignRunner> runner_;
};

}  // namespace retscan
