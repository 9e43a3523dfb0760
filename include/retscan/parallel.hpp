#pragma once

/// retscan public surface — parallel orchestration layer.
///
/// The work-stealing thread pool and the shard-map-reduce campaign runner
/// the pooled backends are built on. A Session owns one runner and routes
/// CampaignSpec workloads through it automatically; include this directly
/// only to drive custom map-reduce workloads by hand. Same seed → same
/// shard plan → bit-identical merged results at any thread count.

#include "parallel/campaign_runner.hpp" // CampaignRunner, plan_shards, shard_seed, RunControls
#include "util/cancel.hpp"              // CancelToken, Cancelled, CampaignStatus
#include "util/failpoint.hpp"           // failpoint(), RETSCAN_FAILPOINTS harness
#include "util/journal.hpp"             // CampaignJournal checkpoint/resume
#include "util/thread_pool.hpp"         // ThreadPool
