// Ingest admission: shed batches while reclamation lags.
//
// Retired-but-unfreed generations (old routing tables and replaced shard
// maps, held by the epoch pins of composite snapshots) cost memory. A
// batch stream that outruns reclamation can grow that debt without bound:
// every reshard under churn retires another generation, and long-lived
// snapshots keep them all alive. ShardedPnbMap therefore carries one shed
// watermark (set_shed_watermark): while its retired_bytes() gauge is
// above it, even after the reclaimer has freed what no pin holds any
// more, apply_batch returns the batch unapplied with
// BatchResult::deferred set — the caller's cue to retry after dropping
// snapshots or easing the reshard cadence. Admission never waits, so a
// serving loop can call apply_batch directly.
//
// Only batch admission sheds. Point operations stay non-blocking: a single
// op's memory footprint is bounded, and throttling the lock-free paths
// would break the structure's progress guarantees for no gain.
#pragma once

#include <cstdint>

namespace pnbbst::ingest {

// Per-container admission counters (monotone since construction): every
// non-empty apply_batch is counted as exactly one of the two.
struct AdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t deferred = 0;
};

}  // namespace pnbbst::ingest
