#pragma once

// The one fault-simulation driver behind every *_fault_simulate entry point
// (stuck-at, transition-delay, bridging, sequential). Private to src/atpg:
// callers go through the per-model entry points in fault_sim.hpp and
// fault_models.hpp.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "atpg/fault_sim.hpp"
#include "util/lanes.hpp"
#include "util/thread_pool.hpp"

namespace retscan::detail {

/// Lane blocks needed for `items` stimulus entries, and the entries in
/// block `b` (kLaneBlockBits except for a partial last block).
inline std::size_t lane_blocks(std::size_t items) {
  return (items + kLaneBlockBits - 1) / kLaneBlockBits;
}
inline std::size_t lane_block_size(std::size_t items, std::size_t b) {
  return std::min(kLaneBlockBits, items - b * kLaneBlockBits);
}

/// Patterns [first, first + count) loaded and settled as one batch.
inline CombinationalFrame::LoadedPatternBatch load_patterns(
    const CombinationalFrame& frame, const std::vector<BitVec>& patterns,
    std::size_t first, std::size_t count) {
  return frame.load_batch({patterns.begin() + first, patterns.begin() + first + count});
}

/// Stimulus of the single-pattern combinational models: the pattern list in
/// lane blocks, block b holding patterns [b * kLaneBlockBits, ...).
struct PatternBlocks {
  using Batch = CombinationalFrame::LoadedPatternBatch;

  const CombinationalFrame& frame;
  const std::vector<BitVec>& patterns;

  std::size_t batch_count() const { return lane_blocks(patterns.size()); }
  Batch load(std::size_t b) const {
    return load_patterns(frame, patterns, b * kLaneBlockBits,
                         lane_block_size(patterns.size(), b));
  }
};

/// Parallel-pattern single-fault propagation with fault dropping. A model
/// supplies:
///   - `Batch`, `batch_count()`, `load(b)`: lane block b of the stimulus,
///     loaded once and shared read-only by every shard;
///   - `Scratch`, `scratch()`: a shard's private evaluation state (for the
///     combinational models, a workspace whose memo shares FFR terms among
///     the shard's faults within a batch);
///   - `Site`, `site(fault, scratch)`: per-fault state (FFR slots, and for a
///     bridge which net reaches the other), resolved once per shard before
///     its batch loop;
///   - `detect(fault, site, batch, scratch)`: a mask whose lowest set lane
///     is the batch's first stimulus entry that detects the fault, and no
///     lane set when none does. The driver reads nothing else, so a model
///     may return more lanes or fewer above that one (the sequential model
///     stops a fault's cycle loop once lane 0 is set).
/// The fault list is cut into `fault_shard`-sized shards (0 counts as 1).
/// Each shard walks the batches in order and drops a fault at its first
/// detecting block, so detected_by[i] = b * kLaneBlockBits + first lane is
/// a pure function of (fault, stimulus) at any shard size and thread count.
/// Without a pool (the serial fault_simulate, run_atpg's random phase) the
/// same loop runs inline as one shard, which loads each block when it
/// reaches it and frees it after: one block is resident, and blocks past
/// the last live fault are never loaded.
template <typename Model, typename FaultT>
FaultSimResult simulate_faults(const Model& model, const std::vector<FaultT>& faults,
                               ThreadPool* pool, std::size_t fault_shard) {
  FaultSimResult result;
  result.total_faults = faults.size();
  result.detected_by.assign(faults.size(), FaultSimResult::npos);
  const std::size_t batch_count = model.batch_count();
  if (faults.empty() || batch_count == 0) {
    return result;
  }
  const auto for_each = [pool](std::size_t count,
                               const std::function<void(std::size_t)>& body) {
    if (pool != nullptr) {
      pool->parallel_for(count, body);
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        body(i);
      }
    }
  };

  // Pooled shards share every block, loaded up front; the inline shard
  // loads its own as it goes.
  std::vector<typename Model::Batch> batches(batch_count);
  for_each(pool != nullptr ? batch_count : 0,
           [&](std::size_t b) { batches[b] = model.load(b); });

  // Each shard owns its detected_by slots (disjoint writes) and scratch.
  const std::size_t shard =
      pool == nullptr ? faults.size() : std::max<std::size_t>(fault_shard, 1);
  const std::size_t shard_count = (faults.size() + shard - 1) / shard;
  std::vector<std::size_t> shard_detected(shard_count, 0);
  for_each(shard_count, [&](std::size_t s) {
    const std::size_t first = s * shard;
    const std::size_t last = std::min(faults.size(), first + shard);
    typename Model::Scratch scratch = model.scratch();
    std::vector<typename Model::Site> sites;
    std::vector<std::size_t> live;
    sites.reserve(last - first);
    live.reserve(last - first);
    for (std::size_t fi = first; fi < last; ++fi) {
      sites.push_back(model.site(faults[fi], scratch));
      live.push_back(fi);
    }
    for (std::size_t b = 0; b < batch_count && !live.empty(); ++b) {
      if (pool == nullptr) {
        batches[b] = model.load(b);
      }
      std::size_t kept = 0;
      for (const std::size_t fi : live) {
        const LaneBlock mask =
            model.detect(faults[fi], sites[fi - first], batches[b], scratch);
        if (block_any(mask)) {
          result.detected_by[fi] = b * kLaneBlockBits + block_first_lane(mask);
          ++shard_detected[s];
        } else {
          live[kept++] = fi;  // fault dropping: only survivors see block b + 1
        }
      }
      live.resize(kept);
      if (pool == nullptr) {
        batches[b] = {};
      }
    }
  });
  for (const std::size_t count : shard_detected) {
    result.detected += count;
  }
  return result;
}

}  // namespace retscan::detail
