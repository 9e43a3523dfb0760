#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "atpg/fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled_netlist.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace retscan {

/// Combinational test frame of a (scan) design: flip-flop outputs are
/// pseudo-primary inputs (loaded through the chains), flip-flop D pins are
/// pseudo-primary outputs (captured and unloaded). A scan test pattern is
/// therefore an assignment to PIs + PPIs, and its response is the POs +
/// PPOs. This is exactly the view a scan tester has of the circuit.
///
/// Evaluation runs on the compiled simulation core (sim/compiled_netlist):
/// batches are loaded and settled once into slot-indexed good-machine
/// values, and each fault is then simulated *incrementally* through its
/// fanout-free region (FFR). A net's region ends at its stem: the first net
/// on its single-reader chain that has no reader, several readers, or is an
/// observation point. A fault's effect reaches the stem along that chain
/// only, so it is detected exactly in the lanes where it is activated, every
/// chain gate passes a flip of its input on, and flipping the stem is
/// observed. That last term is every lane for an observed stem, else one
/// change-driven propagate of the stem's flip (CompiledNetlist::
/// propagate_change): only instructions whose operands changed are
/// re-evaluated, a changed observation point ORs its difference into the
/// result, and the changed slots are restored afterwards. So per-fault cost
/// is O(chain + what the flip disturbs), not O(circuit), no cone is built or
/// stored, and a memo shares one stem observation per batch among every
/// fault of the region (detect_site).
class CombinationalFrame {
 public:
  explicit CombinationalFrame(const Netlist& netlist);

  const Netlist& netlist() const { return *netlist_; }
  /// The compiled core the frame's value slots index into.
  const CompiledNetlist& compiled() const { return *compiled_; }
  /// Primary input nets (excludes scan controls only if caller wires them).
  const std::vector<NetId>& pi_nets() const { return pi_nets_; }
  /// Flop cells serving as PPI (Q) / PPO (D capture).
  const std::vector<CellId>& flops() const { return flops_; }
  const std::vector<NetId>& po_nets() const { return po_nets_; }
  std::size_t pattern_width() const { return pi_nets_.size() + flops_.size(); }
  std::size_t response_width() const { return po_nets_.size() + flops_.size(); }

  /// Constrain a primary input to a fixed value during capture (e.g. the
  /// scan-enable, retain and monitor controls must be 0 while a pattern is
  /// applied). Constrained bits are forced in every pattern and excluded
  /// from PODEM's decision space.
  void constrain(const std::string& input_name, bool value);
  /// Constraints as (pattern index, value) pairs.
  const std::vector<std::pair<std::size_t, bool>>& constraints() const {
    return constraints_;
  }

  /// A pattern assigns pattern_width() bits: PIs first, then PPIs.
  BitVec random_pattern(Rng& rng) const;

  /// Good-machine response of a single pattern.
  BitVec good_response(const BitVec& pattern) const;

  /// Up to kLaneBlockBits patterns loaded AND settled: `settled` holds the
  /// slot-indexed good-machine values (one lane-major LaneBlock per slot)
  /// after one full compiled block sweep, `good` the observable response
  /// blocks. Loading+settling is the per-batch cost; each fault evaluation
  /// is then incremental over `settled`, so simulating F faults through
  /// detect_site costs one settle plus at most one stem observation per
  /// region touched — each covering 256 patterns. Patterns are loaded whole
  /// words at a time (64 x 64 bit-tile transposes).
  struct LoadedPatternBatch {
    std::vector<LaneBlock> settled;  // indexed by value slot
    std::vector<LaneBlock> good;     // response_width() observable blocks
    std::size_t count = 0;           // patterns in the batch
    std::uint64_t tag = 0;           // workspace-sync identity
  };
  LoadedPatternBatch load_batch(const std::vector<BitVec>& patterns) const;

  /// Per-thread evaluation scratch. The frame itself is immutable during
  /// queries and every detection below takes a workspace, so any number of
  /// threads share one frame concurrently, one workspace each. The workspace
  /// remembers which batch it mirrors (each observation restores what it
  /// changed), so consecutive queries against the same batch skip the
  /// baseline copy.
  struct Workspace {
    /// One memoised FFR term of the synced batch: a non-stem slot's path
    /// (lanes in which a flip of the slot reaches its stem) or a stem's
    /// observability (lanes in which a flip of the stem is observed).
    struct MemoEntry {
      LaneBlock lanes;
      std::uint32_t slot = 0;
    };

    std::vector<LaneBlock> values;
    std::uint64_t synced_tag = 0;
    /// detect_site's memo for the synced batch, cleared whenever the
    /// workspace syncs to another batch: a sparse set keyed by slot, whose
    /// dense list holds only the slots the caller's faults touched.
    /// memo_index[slot] is valid iff it points at an entry for that slot.
    std::vector<std::uint32_t> memo_index;
    std::vector<MemoEntry> memo;
    std::vector<std::uint32_t> chain;  // path-walk scratch
    std::vector<std::uint32_t> undo;   // slots a stem observation changed
    /// propagate's instruction bitmap, all zero between calls (stem
    /// observation and reaches share it).
    std::vector<std::uint64_t> pending;
  };

  /// Good-machine responses of up to 64 patterns in lane-word form: one word
  /// per observable (POs first, then flop D captures), lane p = pattern p.
  /// Detection inside the frame is now a block-wide XOR (see detect_site);
  /// this word view remains the currency of the scan-delivery comparators,
  /// which shift 64 chains at a time. For an already-loaded batch it is word
  /// 0 of each LoadedPatternBatch::good block.
  std::vector<std::uint64_t> good_response_words(const std::vector<BitVec>& patterns) const;

  /// A fault site resolved against the fanout-free regions: the net's value
  /// slot and the slot of its region's stem.
  struct FaultSite {
    std::uint32_t slot = 0;
    std::uint32_t stem = 0;
  };
  FaultSite fault_site(NetId net) const;
  /// Whether a change of the site's net can reach net `to`: `to` lies on the
  /// site's chain to its stem, is the stem, or is reached from the stem. A
  /// walk of the chain, then a propagate from the stem that stops below
  /// `to`'s slot, on the workspace's bitmap.
  bool reaches(const FaultSite& from, NetId to, Workspace& workspace) const;

  /// Block-wide parallel-pattern single-fault propagation: lane p of the
  /// result is set iff pattern p of `batch` (up to kLaneBlockBits patterns)
  /// detects a fault on the resolved `site` stuck at `stuck_at`, restricted
  /// to the lanes of `care`. The fault is activated, narrowed along its FFR
  /// chain and observed at the stem (one propagate of the stem's flip,
  /// skipped when no activated lane reaches the stem). Each chain slot's
  /// path and each stem's observability is memoised in the workspace for the
  /// synced batch and shared by every fault that reaches it (both polarities
  /// of a net, every net of a region). Throws Error when `batch` does not
  /// fit the frame.
  LaneBlock detect_site(const FaultSite& site, bool stuck_at, const LaneBlock& care,
                        const LoadedPatternBatch& batch, Workspace& workspace) const;
  /// detect_site for one fault over every lane, with the memo cleared first
  /// so that every call does the whole per-fault work.
  LaneBlock detect_block(const Fault& fault, const LoadedPatternBatch& batch,
                         Workspace& workspace) const;

  /// Reference full-circuit detection through the retained interpreter path
  /// (per-Cell walk, NetId-indexed values, no FFRs): the independent oracle
  /// the FFR path is tested against, and the baseline bench_engine times.
  std::uint64_t detect_mask_full(const Fault& fault, const std::vector<BitVec>& patterns,
                                 const std::vector<std::uint64_t>& good_words) const;

 private:
  void load(std::vector<LaneBlock>& slot_values,
            const std::vector<BitVec>& patterns) const;
  /// Point the workspace at `batch`: check the batch's shape, copy its
  /// settled values and drop the memo when it mirrored another batch; size
  /// its scratch for this frame.
  void sync(const LoadedPatternBatch& batch, Workspace& workspace) const;
  /// Lanes in which flipping `slot` flips the output of its single reader;
  /// `values` (a synced workspace) is restored before returning.
  LaneBlock flip_sensitivity(std::uint32_t slot, LaneBlock* values) const;
  /// Lanes in which a flip of slot `stem` is observed: every live lane at an
  /// observed stem, else one change-driven propagate of the flip in the
  /// workspace (synced to `batch`), which is restored before returning.
  LaneBlock observe_stem(std::uint32_t stem, const LoadedPatternBatch& batch,
                         Workspace& workspace) const;
  /// Size the workspace's propagate bitmap for this frame.
  void size_pending(Workspace& workspace) const;

  const Netlist* netlist_;
  std::shared_ptr<const CompiledNetlist> compiled_;
  std::vector<NetId> pi_nets_;
  std::vector<CellId> flops_;
  std::vector<NetId> po_nets_;
  std::vector<std::uint32_t> pattern_slots_;  // pattern bit -> slot: PIs, then flop Qs
  std::vector<std::uint32_t> obs_slots_;  // PO slots then flop D slots
  std::vector<std::uint32_t> obs_word_of_slot_;  // slot -> good-word index (or kNoObs)
  // Fanout-free regions: the stem of each slot's region, and the single
  // instruction reading a non-stem slot (kNoReader at stems).
  std::vector<std::uint32_t> stem_of_slot_;
  std::vector<std::uint32_t> reader_of_slot_;
  std::vector<std::uint32_t> const1_slots_;
  std::vector<NetId> const1_nets_;  // for the reference interpreter path
  std::vector<std::pair<std::size_t, bool>> constraints_;
};

/// Outcome of fault-simulating a stimulus set over a fault list.
struct FaultSimResult {
  /// Sentinel in detected_by for faults no pattern detected.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::size_t total_faults = 0;
  std::size_t detected = 0;
  /// detected_by[i] = index of the first detecting pattern, or npos.
  std::vector<std::size_t> detected_by;
  double coverage() const {
    return total_faults == 0 ? 1.0
                             : static_cast<double>(detected) / static_cast<double>(total_faults);
  }
};

/// Stuck-at fault simulation with fault dropping. This and the other
/// *_fault_simulate models (fault_models.hpp) share one driver: the pooled
/// overload shards the fault list `fault_shard` faults at a time across the
/// pool, and its result is identical to the serial one at any thread count
/// and shard size. The serial overload is run_atpg's random phase: one
/// shard that loads each pattern block only when it reaches it, so one
/// block is resident at a time.
FaultSimResult fault_simulate(const CombinationalFrame& frame,
                              const std::vector<Fault>& faults,
                              const std::vector<BitVec>& patterns);
FaultSimResult fault_simulate(const CombinationalFrame& frame,
                              const std::vector<Fault>& faults,
                              const std::vector<BitVec>& patterns,
                              ThreadPool& pool, std::size_t fault_shard = 128);

}  // namespace retscan
