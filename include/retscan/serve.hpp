#pragma once

/// retscan public surface — campaign service tier.
///
/// The `retscan serve` daemon and its client: spec-file jobs over a local
/// Unix-domain socket (line-delimited JSON), multiplexed onto one shared
/// pool with fair shard interleaving, backed by an in-memory session
/// cache. Everything here preserves the core contract: a campaign run
/// through the daemon is byte-identical to the same spec run by `retscan
/// run`, cold or warm cache, at any thread count.
///
/// Deliberately NOT in the umbrella retscan.hpp: embedding applications
/// rarely want a daemon, and this header pulls in POSIX socket usage.

#include "serve/client.hpp"             // Client (submit/jobs/cancel/shutdown)
#include "serve/job_manager.hpp"        // JobManager, ServeOptions, JobRecord
#include "serve/json.hpp"               // wire-format JSON value
#include "serve/protocol.hpp"           // ResultSummary, SubmitOverrides, JobState
#include "serve/server.hpp"             // Server (the daemon)
#include "serve/session_cache.hpp"      // SessionCache, session_key
