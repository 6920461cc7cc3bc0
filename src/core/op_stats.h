// Operation statistics policies for the tree templates.
//
// NullOpStats compiles to nothing (the default). CountingOpStats keeps the
// paper's mechanism counts on cacheline-striped cells (util/cacheline.h):
// one uncontended relaxed increment per event, summed by snapshot(). It
// feeds the serving map's pnb_engine_*/pnb_shard_* gauges
// (obs/adapters.h), the handshaking / helping ablation benches and
// several tests. Counters are named after the paper's mechanisms.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/trace.h"
#include "util/cacheline.h"

namespace pnbbst {

// Point-in-time copy of every mechanism counter: plain integers so
// benches and the obs registry can read/diff them. NullOpStats returns an
// all-zero snapshot, letting generic reporting code compile against
// either policy.
struct OpStatsSnapshot {
  // One update-loop iteration (an "attempt" in the paper's terminology).
  std::uint64_t attempts = 0;
  // Update attempts whose Info object reached Commit.
  std::uint64_t commits = 0;
  // Attempts aborted by the handshaking check (Counter advanced).
  std::uint64_t handshake_aborts = 0;
  // Attempts aborted because a later freeze CAS lost a race.
  std::uint64_t freeze_fail_aborts = 0;
  // ValidateLeaf / ValidateLink failures that forced a retry.
  std::uint64_t validate_fails = 0;
  // Calls to Help() on someone else's Info object (the helping mechanism).
  std::uint64_t helps = 0;
  // RangeScan / snapshot traversals started.
  std::uint64_t scans = 0;
  // Help() calls issued from inside a scan traversal.
  std::uint64_t scan_helps = 0;
  // Child CAS attempts that failed (another helper already applied it).
  std::uint64_t child_cas_failures = 0;
  // Allocation counters (used by reclamation accounting tests).
  std::uint64_t nodes_allocated = 0;
  std::uint64_t infos_allocated = 0;
  // Nodes handed to the reclaimer after a successful unlink / abort
  // (tab6 pairs the retire-side counters with the allocator's AllocStats).
  std::uint64_t nodes_retired = 0;
  // Speculative nodes/Infos freed directly (never published to anyone).
  std::uint64_t unpublished_frees = 0;

  OpStatsSnapshot& operator+=(const OpStatsSnapshot& o) noexcept {
    attempts += o.attempts;
    commits += o.commits;
    handshake_aborts += o.handshake_aborts;
    freeze_fail_aborts += o.freeze_fail_aborts;
    validate_fails += o.validate_fails;
    helps += o.helps;
    scans += o.scans;
    scan_helps += o.scan_helps;
    child_cas_failures += o.child_cas_failures;
    nodes_allocated += o.nodes_allocated;
    infos_allocated += o.infos_allocated;
    nodes_retired += o.nodes_retired;
    unpublished_frees += o.unpublished_frees;
    return *this;
  }
  bool operator==(const OpStatsSnapshot&) const = default;
};

struct NullOpStats {
  static constexpr bool kEnabled = false;
  void inc_attempts() noexcept {}
  void inc_commits() noexcept {}
  void inc_handshake_aborts() noexcept {}
  void inc_freeze_fail_aborts() noexcept {}
  void inc_validate_fails() noexcept {}
  void inc_helps() noexcept {}
  void inc_scans() noexcept {}
  void inc_scan_helps() noexcept {}
  void inc_child_cas_failures() noexcept {}
  void inc_nodes_allocated(std::uint64_t = 1) noexcept {}
  void inc_infos_allocated() noexcept {}
  void inc_nodes_retired() noexcept {}
  void inc_unpublished_frees(std::uint64_t = 1) noexcept {}

  OpStatsSnapshot snapshot() const noexcept { return {}; }
};

struct CountingOpStats {
  static constexpr bool kEnabled = true;

  void inc_attempts() noexcept { cells_.add(kAttempts); }
  void inc_commits() noexcept { cells_.add(kCommits); }
  // The paper-mechanism events also feed the obs trace ring (one relaxed
  // load + branch when tracing is disabled, the default).
  void inc_handshake_aborts() noexcept {
    cells_.add(kHandshakeAborts);
    obs::trace_event(obs::TraceKind::kHandshakeAbort);
  }
  void inc_freeze_fail_aborts() noexcept {
    cells_.add(kFreezeFailAborts);
    obs::trace_event(obs::TraceKind::kFreezeFailAbort);
  }
  void inc_validate_fails() noexcept { cells_.add(kValidateFails); }
  void inc_helps() noexcept {
    cells_.add(kHelps);
    obs::trace_event(obs::TraceKind::kHelp, 0);
  }
  void inc_scans() noexcept { cells_.add(kScans); }
  void inc_scan_helps() noexcept {
    cells_.add(kScanHelps);
    obs::trace_event(obs::TraceKind::kHelp, 1);
  }
  void inc_child_cas_failures() noexcept { cells_.add(kChildCasFailures); }
  void inc_nodes_allocated(std::uint64_t n = 1) noexcept {
    cells_.add(kNodesAllocated, n);
  }
  void inc_infos_allocated() noexcept { cells_.add(kInfosAllocated); }
  void inc_nodes_retired() noexcept { cells_.add(kNodesRetired); }
  void inc_unpublished_frees(std::uint64_t n = 1) noexcept {
    cells_.add(kUnpublishedFrees, n);
  }

  OpStatsSnapshot snapshot() const noexcept {
    OpStatsSnapshot s;
    s.attempts = cells_.value(kAttempts);
    s.commits = cells_.value(kCommits);
    s.handshake_aborts = cells_.value(kHandshakeAborts);
    s.freeze_fail_aborts = cells_.value(kFreezeFailAborts);
    s.validate_fails = cells_.value(kValidateFails);
    s.helps = cells_.value(kHelps);
    s.scans = cells_.value(kScans);
    s.scan_helps = cells_.value(kScanHelps);
    s.child_cas_failures = cells_.value(kChildCasFailures);
    s.nodes_allocated = cells_.value(kNodesAllocated);
    s.infos_allocated = cells_.value(kInfosAllocated);
    s.nodes_retired = cells_.value(kNodesRetired);
    s.unpublished_frees = cells_.value(kUnpublishedFrees);
    return s;
  }

 private:
  enum Counter : std::size_t {
    kAttempts,
    kCommits,
    kHandshakeAborts,
    kFreezeFailAborts,
    kValidateFails,
    kHelps,
    kScans,
    kScanHelps,
    kChildCasFailures,
    kNodesAllocated,
    kInfosAllocated,
    kNodesRetired,
    kUnpublishedFrees,
    kCounters
  };

  StripedCounters<kCounters> cells_;
};

}  // namespace pnbbst
