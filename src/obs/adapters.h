// Registry adapters: register every existing gauge family
// (CountingOpStats, mem::AllocStats, ShardedPnbMap::Lifetime,
// AdmissionStats, per-shard op/size gauges on ShardedPnbMap, ServerStats)
// as collector callbacks on a MetricsRegistry, so one
// snapshot()/prometheus_text() call yields the whole system state.
//
// The adapters are duck-typed templates — they require only the gauge
// surface (e.g. `.retired_bytes()`), not the concrete container types,
// so this header pulls in nothing heavy and any current or future
// subsystem with the same shape can register through it.
//
// Lifetime contract: a collector samples its subject at every scrape,
// so the subject must outlive the Registration that holds the
// collector. Server registers at start() and resets the Registration
// in stop(); process-lifetime subjects (the immortal arena domains)
// may register once and never unregister.
#pragma once

#include <array>
#include <cstdio>
#include <string>
#include <utility>

#include "core/op_stats.h"
#include "obs/latency.h"
#include "obs/registry.h"

namespace pnbbst::obs {

namespace detail {
inline std::string join_labels(const std::string& base,
                               const std::string& extra) {
  if (base.empty()) return extra;
  if (extra.empty()) return base;
  return base + "," + extra;
}

// One sample per mechanism counter into the pnb_engine_<mech>_total
// families (one per registered subject, distinguished by labels).
inline void emit_op_snapshot(std::vector<Sample>& out,
                             const std::string& labels,
                             const OpStatsSnapshot& s) {
  const auto emit = [&](const char* mech, std::uint64_t v) {
    out.push_back({std::string("pnb_engine_") + mech + "_total", labels,
                   static_cast<double>(v)});
  };
  emit("attempts", s.attempts);
  emit("commits", s.commits);
  emit("handshake_aborts", s.handshake_aborts);
  emit("freeze_fail_aborts", s.freeze_fail_aborts);
  emit("validate_fails", s.validate_fails);
  emit("helps", s.helps);
  emit("scans", s.scans);
  emit("scan_helps", s.scan_helps);
  emit("child_cas_failures", s.child_cas_failures);
  emit("nodes_allocated", s.nodes_allocated);
  emit("infos_allocated", s.infos_allocated);
  emit("nodes_retired", s.nodes_retired);
  emit("unpublished_frees", s.unpublished_frees);
}

inline void declare_engine_families(MetricsRegistry& reg) {
  reg.declare("pnb_engine_attempts_total", MetricType::kCounter,
              "Update-loop iterations (attempts)");
  reg.declare("pnb_engine_commits_total", MetricType::kCounter,
              "Update attempts that reached Commit");
  reg.declare("pnb_engine_handshake_aborts_total", MetricType::kCounter,
              "Attempts aborted by the handshaking check");
  reg.declare("pnb_engine_freeze_fail_aborts_total", MetricType::kCounter,
              "Attempts aborted by a lost freeze CAS");
  reg.declare("pnb_engine_validate_fails_total", MetricType::kCounter,
              "Validate failures that forced a retry");
  reg.declare("pnb_engine_helps_total", MetricType::kCounter,
              "Help() calls on foreign Infos");
  reg.declare("pnb_engine_scans_total", MetricType::kCounter,
              "RangeScan/snapshot traversals");
  reg.declare("pnb_engine_scan_helps_total", MetricType::kCounter,
              "Help() calls from scan traversals");
  reg.declare("pnb_engine_child_cas_failures_total", MetricType::kCounter,
              "Child CAS attempts another helper won");
  reg.declare("pnb_engine_nodes_allocated_total", MetricType::kCounter,
              "Tree nodes allocated");
  reg.declare("pnb_engine_infos_allocated_total", MetricType::kCounter,
              "Info records allocated");
  reg.declare("pnb_engine_nodes_retired_total", MetricType::kCounter,
              "Nodes handed to the reclaimer");
  reg.declare("pnb_engine_unpublished_frees_total", MetricType::kCounter,
              "Speculative records freed unpublished");
}
}  // namespace detail

// CountingOpStats (or any policy with snapshot() -> OpStatsSnapshot).
template <class Stats>
void register_op_stats(MetricsRegistry& reg, Registration& handle,
                       const Stats& stats, std::string labels) {
  detail::declare_engine_families(reg);
  reg.add_collector(
      handle, "pnb_engine_commits_total", MetricType::kCounter,
      "Update attempts that reached Commit",
      [&stats, labels = std::move(labels)](std::vector<Sample>& out) {
        detail::emit_op_snapshot(out, labels, stats.snapshot());
      });
}

// mem::ArenaDomain (anything with stats() -> AllocStats-shaped struct).
template <class Domain>
void register_arena(MetricsRegistry& reg, Registration& handle,
                    const Domain& domain, std::string labels) {
  reg.add_collector(
      handle, "pnb_arena_slot_allocs_total", MetricType::kCounter,
      "Arena slots handed out",
      [&domain, labels = std::move(labels)](std::vector<Sample>& out) {
        const auto s = domain.stats();
        out.push_back({"pnb_arena_slot_allocs_total", labels,
                       static_cast<double>(s.slot_allocs)});
        out.push_back({"pnb_arena_slot_frees_total", labels,
                       static_cast<double>(s.slot_frees)});
        out.push_back({"pnb_arena_freelist_hits_total", labels,
                       static_cast<double>(s.freelist_hits)});
        out.push_back({"pnb_arena_slab_refills_total", labels,
                       static_cast<double>(s.slab_refills)});
        out.push_back({"pnb_arena_slab_bytes", labels,
                       static_cast<double>(s.slab_bytes)});
        out.push_back({"pnb_arena_slots_live", labels,
                       static_cast<double>(s.slots_live())});
      });
  reg.declare("pnb_arena_slot_frees_total", MetricType::kCounter,
              "Arena slots returned");
  reg.declare("pnb_arena_freelist_hits_total", MetricType::kCounter,
              "Arena allocs served by a recycled slot");
  reg.declare("pnb_arena_slab_refills_total", MetricType::kCounter,
              "Fresh slabs carved");
  reg.declare("pnb_arena_slab_bytes", MetricType::kGauge,
              "Total bytes in live slabs");
  reg.declare("pnb_arena_slots_live", MetricType::kGauge,
              "Arena slots currently live");
}

// ShardedPnbMap::Lifetime (retired_bytes/retired_objects-shaped).
template <class Lifetime>
void register_lifetime(MetricsRegistry& reg, Registration& handle,
                       const Lifetime& lm, std::string labels) {
  reg.add_collector(
      handle, "pnb_lifecycle_retired_bytes", MetricType::kGauge,
      "Bytes of shard maps retired by reshards and not yet freed",
      [&lm, labels = std::move(labels)](std::vector<Sample>& out) {
        out.push_back({"pnb_lifecycle_retired_bytes", labels,
                       static_cast<double>(lm.retired_bytes())});
        out.push_back({"pnb_lifecycle_retired_objects", labels,
                       static_cast<double>(lm.retired_objects())});
        out.push_back({"pnb_lifecycle_active_leases", labels,
                       static_cast<double>(lm.active_leases())});
        out.push_back({"pnb_lifecycle_current_generation", labels,
                       static_cast<double>(lm.current_generation())});
      });
  reg.declare("pnb_lifecycle_retired_objects", MetricType::kGauge,
              "Shard maps retired by reshards and not yet freed");
  reg.declare("pnb_lifecycle_active_leases", MetricType::kGauge,
              "Open composite snapshots");
  reg.declare("pnb_lifecycle_current_generation", MetricType::kGauge,
              "Reshard cutovers so far");
}

// Anything with admission_stats() -> ingest::AdmissionStats.
template <class Map>
void register_admission(MetricsRegistry& reg, Registration& handle,
                        const Map& map, std::string labels) {
  reg.add_collector(
      handle, "pnb_admission_admitted_total", MetricType::kCounter,
      "Batches admitted",
      [&map, labels = std::move(labels)](std::vector<Sample>& out) {
        const auto s = map.admission_stats();
        out.push_back({"pnb_admission_admitted_total", labels,
                       static_cast<double>(s.admitted)});
        out.push_back({"pnb_admission_deferred_total", labels,
                       static_cast<double>(s.deferred)});
      });
  reg.declare("pnb_admission_deferred_total", MetricType::kCounter,
              "Batches shed above the retired-bytes watermark");
}

// ShardedPnbMap: per-shard size gauges, plus per-shard mechanism
// counters when the map's stats policy is enabled. Sizes are the shards'
// maintained entry counts (shard_sizes(), O(NumShards)): a scrape opens
// no phase and walks no tree (DESIGN.md §14).
template <class Map>
void register_sharded_map(MetricsRegistry& reg, Registration& handle,
                          Map& map, std::string labels) {
  reg.add_collector(
      handle, "pnb_shard_size", MetricType::kGauge,
      "Keys per shard (maintained count; exact when quiescent)",
      [&map, labels](std::vector<Sample>& out) {
        const auto sizes = map.shard_sizes();
        char lbuf[96];
        std::size_t total = 0;
        std::size_t biggest = 0;
        for (std::size_t i = 0; i < sizes.size(); ++i) {
          std::snprintf(lbuf, sizeof(lbuf), "shard=\"%zu\"", i);
          out.push_back({"pnb_shard_size",
                         detail::join_labels(labels, lbuf),
                         static_cast<double>(sizes[i])});
          total += sizes[i];
          if (sizes[i] > biggest) biggest = sizes[i];
        }
        // max/mean size skew: 1.0 = perfectly balanced, NumShards = all
        // keys on one shard. A dashboard view only: the rebalancer acts on
        // sampled write skew (pnb_rebalance_last_skew_ratio), since range
        // cuts that balance writes need not balance sizes.
        const double mean =
            static_cast<double>(total) / static_cast<double>(sizes.size());
        out.push_back({"pnb_shard_imbalance_ratio", labels,
                       total == 0 ? 1.0
                                  : static_cast<double>(biggest) / mean});
      });
  reg.declare("pnb_shard_imbalance_ratio", MetricType::kGauge,
              "Max shard size over mean shard size (1.0 = balanced)");
  if constexpr (Map::kStatsEnabled) {
    // Per-shard mechanism gauges plus the aggregate pnb_engine_* view
    // (lifetime totals across shards; what an operator alerts on).
    detail::declare_engine_families(reg);
    reg.add_collector(
        handle, "pnb_shard_commits_total", MetricType::kCounter,
        "Committed updates per shard",
        [&map, labels](std::vector<Sample>& out) {
          // Lifetime totals are the retired shards' carried counters plus
          // the live shards. A cutover folds and swaps in one step, so an
          // unchanged carried_stats() around the shard reads means no
          // cutover moved counts between them.
          std::array<OpStatsSnapshot, Map::kNumShards> shards;
          OpStatsSnapshot total;
          for (OpStatsSnapshot carried = map.carried_stats();;) {
            total = carried;
            for (std::size_t i = 0; i < shards.size(); ++i) {
              shards[i] = map.shard_stats(i);
              total += shards[i];
            }
            const OpStatsSnapshot after = map.carried_stats();
            if (after == carried) break;
            carried = after;
          }
          char lbuf[96];
          for (std::size_t i = 0; i < shards.size(); ++i) {
            const OpStatsSnapshot& s = shards[i];
            std::snprintf(lbuf, sizeof(lbuf), "shard=\"%zu\"", i);
            const std::string l = detail::join_labels(labels, lbuf);
            out.push_back({"pnb_shard_commits_total", l,
                           static_cast<double>(s.commits)});
            out.push_back({"pnb_shard_attempts_total", l,
                           static_cast<double>(s.attempts)});
            out.push_back({"pnb_shard_helps_total", l,
                           static_cast<double>(s.helps)});
            out.push_back({"pnb_shard_scans_total", l,
                           static_cast<double>(s.scans)});
          }
          detail::emit_op_snapshot(out, labels, total);
        });
    reg.declare("pnb_shard_attempts_total", MetricType::kCounter,
                "Update attempts per shard");
    reg.declare("pnb_shard_helps_total", MetricType::kCounter,
                "Help() calls per shard");
    reg.declare("pnb_shard_scans_total", MetricType::kCounter,
                "Scan traversals per shard");
  }
  register_lifetime(reg, handle, map.lifetime(), labels);
  register_admission(reg, handle, map, labels);
}

// Latency plane: per op class, BOTH a Prometheus summary (quantile
// samples plus _count and the exact _sum of the merged histogram) and a
// native le-bucketed histogram family pnb_op_latency_ns_hist on the fixed
// kLatencyBucketBoundsNs ladder — summaries for cheap single-instance
// reads, histograms for cross-instance aggregation and PromQL
// histogram_quantile(). Cumulative bucket counts come from
// Histogram::count_le on the same merged histogram, so _bucket counts
// are non-decreasing in le by construction and the terminal +Inf bucket
// equals _count exactly (tools/obs_scrape.py --check enforces both).
template <class Plane>
void register_latency(MetricsRegistry& reg, Registration& handle,
                      Plane& plane, std::string labels) {
  reg.add_collector(
      handle, "pnb_op_latency_ns", MetricType::kSummary,
      "Sampled op latency (1-in-N per thread), ns",
      [&plane, labels = std::move(labels)](std::vector<Sample>& out) {
        static constexpr std::pair<const char*, double> kQuantiles[] = {
            {"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}, {"0.999", 0.999}};
        for (std::size_t c = 0;
             c < static_cast<std::size_t>(OpClass::kCount); ++c) {
          const auto cls = static_cast<OpClass>(c);
          const Histogram h = plane.merged(cls);
          if (h.count() == 0) continue;
          char lbuf[64];
          std::snprintf(lbuf, sizeof(lbuf), "op=\"%s\"",
                        op_class_name(cls));
          const std::string base = detail::join_labels(labels, lbuf);
          for (const auto& [qname, q] : kQuantiles) {
            out.push_back(
                {"pnb_op_latency_ns",
                 base + ",quantile=\"" + qname + "\"",
                 static_cast<double>(h.quantile(q))});
          }
          out.push_back({"pnb_op_latency_ns_count", base,
                         static_cast<double>(h.count())});
          out.push_back({"pnb_op_latency_ns_sum", base,
                         static_cast<double>(h.sum())});
          for (std::size_t b = 0; b < kLatencyBucketCount; ++b) {
            out.push_back(
                {"pnb_op_latency_ns_hist_bucket",
                 base + ",le=\"" +
                     std::to_string(kLatencyBucketBoundsNs[b]) + "\"",
                 static_cast<double>(h.count_le(kLatencyBucketBoundsNs[b]))});
          }
          out.push_back({"pnb_op_latency_ns_hist_bucket",
                         base + ",le=\"+Inf\"",
                         static_cast<double>(h.count())});
          out.push_back({"pnb_op_latency_ns_hist_count", base,
                         static_cast<double>(h.count())});
          out.push_back({"pnb_op_latency_ns_hist_sum", base,
                         static_cast<double>(h.sum())});
        }
      });
  reg.declare("pnb_op_latency_ns_count", MetricType::kCounter,
              "Sampled ops per class");
  reg.declare("pnb_op_latency_ns_sum", MetricType::kCounter,
              "Summed sampled latency per class, ns");
  reg.declare("pnb_op_latency_ns_hist", MetricType::kHistogram,
              "Sampled op latency, le-bucketed (fixed ns ladder)");
}

}  // namespace pnbbst::obs
