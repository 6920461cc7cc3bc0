// pnbbench — the repository benchmark (benchmark/README.md).
//
// One process runs one workload:
//   1. a timed set-up: a ServerMap bulk-loaded with the seeded prefill, an
//      epoll Server (2 loops, scan_threads 1), the Rebalancer, and two
//      client connections (set-up is timed four more times after the
//      window; setup_s is the median of the five);
//   2. a closed-loop window of --seconds, split into 2 s segments: one
//      thread per connection replays its seeded op stream and checks every
//      reply against the connection's model;
//   3. a whole-keyspace scan that must equal the union of both models.
// With --trace 1 the window also records a client span on every 16th
// request in odd segments (even segments stay untraced, which prices the
// tracing), then runs an open-loop GET probe and the in-process ladder
// (PnbBst, PnbMap, ServerMap) over the same streams, and writes a Chrome
// trace and a layer table to --trace-dir.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (end-to-end metrics untraced, per-layer metrics traced).
//
//   pnbbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--trace-dir DIR] [--self-test]
//   pnbbench --smoke
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "config.h"
#include "inputs.h"
#include "ladder.h"
#include "measure.h"
#include "wire.h"

namespace pnbbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

LatHist merged(const ConnRun* runs, std::size_t seg,
               const std::vector<OpKind>& kinds) {
  LatHist h;
  for (int c = 0; c < 2; ++c) {
    for (OpKind k : kinds) h.merge(runs[c].seg[seg][static_cast<std::size_t>(k)]);
  }
  return h;
}

// Median over segments of one quantile of the kinds' merged latency (us),
// skipping segments where the kinds did not occur; n = samples.
Metric seg_quantile(const char* name, const ConnRun* runs, int nseg,
                    const std::vector<OpKind>& kinds, double q) {
  std::vector<double> v;
  std::uint64_t n = 0;
  for (int s = 0; s < nseg; ++s) {
    const LatHist h = merged(runs, static_cast<std::size_t>(s), kinds);
    if (h.count() == 0) continue;
    v.push_back(h.quantile(q) / 1000.0);
    n += h.count();
  }
  return {name, median(v), "us", n};
}

struct Rungs {
  RungResult bst;
  RungResult map;
  RungResult shard;
  Probes probes;
};

// The in-process ladder: one rung at a time, each freed before the next.
Rungs run_ladder(const Config& cfg, const std::vector<std::int64_t>& prefill) {
  pnbbst::scan::ScanExecutor exec(1);
  Rungs out;
  // The bst and map rungs allocate from the shared arena domain, which the
  // wire run left cold; the first pass only warms it, so the first rung
  // timed does not pay the fresh-slab page faults the others skip.
  for (int pass = 0; pass < 2; ++pass) {
    auto bst = std::make_unique<BstLayer>();
    prefill_layer(*bst, prefill);
    out.bst = replay(*bst, Layer::kBst, cfg, prefill, exec);
  }
  {
    auto map = std::make_unique<MapLayer>();
    prefill_layer(*map, prefill);
    out.map = replay(*map, Layer::kMap, cfg, prefill, exec);
  }
  auto shard = std::make_unique<ShardLayer>(
      pnbbst::RangeSplitter<std::int64_t>{0, cfg.keyspace(), {}});
  prefill_layer(*shard, prefill);
  out.shard = replay(*shard, Layer::kShard, cfg, prefill, exec);
  out.probes = probe(*shard, cfg, exec);
  return out;
}

void write_trace_files(const Config& cfg, const std::vector<Span>& spans,
                       const std::string& table) {
  namespace fs = std::filesystem;
  fs::create_directories(cfg.trace_dir);
  // One pair of files per workload: a later run replaces the last one.
  const std::string base = cfg.trace_dir + "/" + workload_name(cfg.workload);
  std::uint64_t origin = ~std::uint64_t{0};
  for (const Span& s : spans) origin = std::min(origin, s.t0);
  std::ofstream js(base + ".trace.json");
  js << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (int l = 0; l < 4; ++l) {
    js << (l ? "," : "") << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":"
       << l << ",\"args\":{\"name\":\"" << kLayerNames[l] << "\"}}";
  }
  char buf[256];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof(buf),
                  ",{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":%d,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"conn\":%u,"
                  "\"seq\":%llu}}",
                  kKindNames[s.kind], kLayerNames[static_cast<int>(s.layer)],
                  static_cast<int>(s.layer), s.conn,
                  static_cast<double>(s.t0 - origin) / 1000.0,
                  static_cast<double>(s.t1 - s.t0) / 1000.0, s.conn,
                  static_cast<unsigned long long>(s.seq));
    js << buf;
  }
  js << "]}\n";
  std::ofstream(base + ".layers.txt") << table;
}

}  // namespace

RunResult run(const Config& cfg) {
  RunResult res;
  const std::int64_t keyspace = cfg.keyspace();
  const std::vector<std::int64_t> prefill = prefill_keys(cfg.seed, keyspace);
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  items.reserve(prefill.size());
  for (std::int64_t k : prefill) items.emplace_back(k, value_of(k));
  Model models[2] = {Model(keyspace, 0, prefill), Model(keyspace, 1, prefill)};
  if (cfg.self_test) {
    // Forget one acked key of connection 0: a working checker must notice.
    for (std::int64_t k : prefill) {
      if (models[0].owns(k)) {
        models[0].set(k, false);
        break;
      }
    }
  }

  // --- Set-up. The first serves the window; the rest run after it, so
  // peak_rss_mb sees one set-up and setup_s is a median over several. ---
  Stack stack;
  std::vector<double> setup_s;
  std::vector<double> bulk_s;
  const auto timed_setup = [&] {
    stack.teardown();
    auto copy = items;
    double bulk = 0;
    const std::uint64_t t0 = now_ns();
    if (!stack.build(keyspace, std::move(copy), bulk)) return false;
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    bulk_s.push_back(bulk);
    return true;
  };
  const auto more_setups = [&] {
    for (int i = 1; i < cfg.setups; ++i) {
      if (!timed_setup()) res.fail("set-up failed (server start or connect)");
    }
    stack.teardown();
  };
  if (!timed_setup()) {
    res.fail("set-up failed (server start or connect)");
    return res;
  }

  // --- Closed-loop window. ---------------------------------------------
  const int nseg = cfg.segments();
  const auto seg_ns = static_cast<std::uint64_t>(cfg.seconds / nseg * 1e9);
  std::atomic<int> phase{-1};
  std::atomic<bool> stop{false};
  ConnRun runs[2];
  for (unsigned c = 0; c < 2; ++c) {
    runs[c].conn = c;
    runs[c].client = &stack.clients[c];
    runs[c].model = &models[c];
    runs[c].seg.resize(static_cast<std::size_t>(nseg));
    runs[c].seg_ops.assign(static_cast<std::size_t>(nseg), 0);
    runs[c].spans = SpanBuf(cfg.trace ? std::size_t{1} << 17 : 0);
  }
  std::vector<std::thread> threads;
  for (ConnRun& r : runs) {
    threads.emplace_back([&cfg, &r, &phase, &stop] { drive(cfg, r, phase, stop); });
  }
  double retired_mb_peak = 0;
  std::uint64_t leases_peak = 0;
  const auto wait_until = [&](std::uint64_t deadline) {
    for (std::uint64_t now = now_ns(); now < deadline && !stop.load();
         now = now_ns()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<std::uint64_t>(deadline - now, 100'000'000)));
      if (cfg.trace) {  // lifecycle gauges, sampled every 100 ms
        retired_mb_peak = std::max(
            retired_mb_peak, static_cast<double>(stack.map->retired_bytes()) / kMiB);
        leases_peak = std::max<std::uint64_t>(
            leases_peak, stack.map->lifetime().active_leases());
      }
    }
  };
  wait_until(now_ns() + static_cast<std::uint64_t>(cfg.warmup() * 1e9));
  const PlaneSnap plane0 = cfg.trace ? plane_snapshot() : PlaneSnap{};
  std::vector<std::uint64_t> seg_t(static_cast<std::size_t>(nseg) + 1, 0);
  std::vector<Counters> seg_c;  // at each segment start, then at the end
  for (int s = 0; s < nseg && !stop.load(); ++s) {
    seg_t[static_cast<std::size_t>(s)] = now_ns();
    phase.store(s, std::memory_order_release);
    if (cfg.trace) seg_c.push_back(read_counters(stack));
    wait_until(seg_t[static_cast<std::size_t>(s)] + seg_ns);
  }
  seg_t[static_cast<std::size_t>(nseg)] = now_ns();
  phase.store(nseg, std::memory_order_release);
  for (auto& t : threads) t.join();
  for (const ConnRun& r : runs) {
    res.attempted += r.frames;
    res.failed += r.failed;
    if (!r.wrong.empty()) res.fail(r.wrong);
  }
  if (!res.correct) return res;
  if (std::string err = final_scan(stack.clients[0], models, keyspace, res.attempted);
      !err.empty()) {
    res.fail(err);
    return res;
  }
  const double rss_mb = peak_rss_mb();

  // --- End-to-end metrics. ---------------------------------------------
  const Roles roles = roles_of(cfg.workload);
  std::vector<double> kops(static_cast<std::size_t>(nseg));
  for (std::size_t s = 0; s < kops.size(); ++s) {
    const double secs = static_cast<double>(seg_t[s + 1] - seg_t[s]) * 1e-9;
    kops[s] = static_cast<double>(runs[0].seg_ops[s] + runs[1].seg_ops[s]) /
              secs / 1000.0;
  }
  const Metric read_p50 = seg_quantile("read_p50_us", runs, nseg, roles.read, 0.50);
  const Metric write_p50 = seg_quantile("write_p50_us", runs, nseg, roles.write, 0.50);
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    const std::vector<OpKind> kind = {static_cast<OpKind>(k)};
    for (double q : {0.50, 0.99}) {
      const std::string name = std::string(kKindNames[k]) +
                               (q < 0.9 ? "_p50_us" : "_p99_us");
      Metric m = seg_quantile(name.c_str(), runs, nseg, kind, q);
      if (m.n > 0) res.info.push_back(m);
    }
  }
  if (!cfg.trace) {
    res.metrics = {
        {"throughput_kops", median(kops), "kops/s", static_cast<std::uint64_t>(nseg)},
        read_p50,
        write_p50,
        {"peak_rss_mb", rss_mb, "MiB", 1},
    };
    more_setups();
    res.metrics.push_back({"setup_s", median(setup_s), "s", setup_s.size()});
    return res;
  }

  // --- Traced run: per-layer metrics from the wire. --------------------
  std::vector<Metric>& L = res.metrics;
  const PlaneSnap plane1 = plane_snapshot();
  seg_c.push_back(read_counters(stack));
  const Counters& c0 = seg_c.front();
  const Counters& c1 = seg_c.back();
  const Metric srv_read = plane_p50("server.read_p50_us", plane0, plane1, roles.read);
  const Metric srv_write = plane_p50("server.write_p50_us", plane0, plane1, roles.write);
  std::array<double, kNumKinds> server_p50{};
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    server_p50[k] = plane_p50("", plane0, plane1, {static_cast<OpKind>(k)}).value;
  }
  L.push_back(srv_read);
  L.push_back(srv_write);
  L.push_back({"server.wire_read_p50_us", read_p50.value - srv_read.value, "us", read_p50.n});
  L.push_back({"server.wire_write_p50_us", write_p50.value - srv_write.value, "us",
               write_p50.n});
  L.push_back({"server.frames",
               static_cast<double>(c1.server.ops_served - c0.server.ops_served),
               "count", 1});
  L.push_back({"server.shed_responses",
               static_cast<double>(c1.server.shed_responses - c0.server.shed_responses),
               "count", 1});
  const auto sizes = stack.map->shard_sizes();
  double total_keys = 0;
  double biggest = 0;
  for (std::size_t n : sizes) {
    total_keys += static_cast<double>(n);
    biggest = std::max(biggest, static_cast<double>(n));
  }
  L.push_back({"shard.imbalance_ratio",
               ratio(biggest, total_keys / static_cast<double>(sizes.size())),
               "ratio", 1});
  L.push_back({"rebalance.triggers", static_cast<double>(c1.triggers - c0.triggers),
               "count", 1});
  L.push_back({"rebalance.last_skew_ratio", stack.rebalancer->last_skew(), "ratio", 1});
  const auto d = [&](std::uint64_t pnbbst::OpStatsSnapshot::*f) {
    return static_cast<double>(c1.mech.*f - c0.mech.*f);
  };
  using S = pnbbst::OpStatsSnapshot;
  const double commits = d(&S::commits);
  const double scans = d(&S::scans);
  L.push_back({"core.commit_ratio", ratio(commits, d(&S::attempts)), "ratio", 1});
  L.push_back({"core.helps_per_kcommit", ratio(1000 * d(&S::helps), commits), "1/kcommit", 1});
  L.push_back({"core.cas_fail_per_kcommit",
               ratio(1000 * d(&S::child_cas_failures), commits), "1/kcommit", 1});
  L.push_back({"core.freeze_abort_per_kcommit",
               ratio(1000 * d(&S::freeze_fail_aborts), commits), "1/kcommit", 1});
  L.push_back({"core.validate_fail_per_kcommit",
               ratio(1000 * d(&S::validate_fails), commits), "1/kcommit", 1});
  L.push_back({"core.handshake_aborts_per_kscan",
               ratio(1000 * d(&S::handshake_aborts), scans), "1/kscan", 1});
  L.push_back({"core.scan_helps_per_kscan", ratio(1000 * d(&S::scan_helps), scans),
               "1/kscan", 1});
  L.push_back({"ingest.batches_admitted",
               static_cast<double>(c1.adm.admitted - c0.adm.admitted), "count", 1});
  L.push_back({"ingest.batches_deferred",
               static_cast<double>(c1.adm.deferred - c0.adm.deferred), "count", 1});
  L.push_back({"lifecycle.retired_mb_peak", retired_mb_peak, "MiB", 1});
  L.push_back({"lifecycle.active_leases_peak", static_cast<double>(leases_peak),
               "count", 1});
  L.push_back({"lifecycle.retired_maps_end",
               static_cast<double>(stack.map->retired_maps()), "count", 1});
  double slab_bytes = 0;
  double slots_live = 0;
  const auto arena = [&](const pnbbst::mem::ArenaDomain& dom) {
    const auto st = dom.stats();
    slab_bytes += static_cast<double>(st.slab_bytes);
    slots_live += static_cast<double>(st.slots_live());
  };
  arena(pnbbst::mem::ArenaDomain::shared());
  for (std::size_t i = 0; i < pnbbst::mem::ArenaDomain::kPooledDomains; ++i) {
    arena(pnbbst::mem::ArenaDomain::pooled(i));
  }
  L.push_back({"mem.arena_mb", slab_bytes / kMiB, "MiB", 1});
  L.push_back({"mem.arena_slots_live_per_key", ratio(slots_live, total_keys),
               "slots/key", 1});
  // Client tails: too unsteady run to run on a shared host to gate on.
  L.push_back(seg_quantile("loadgen.read_p99_us", runs, nseg, roles.read, 0.99));
  L.push_back(seg_quantile("loadgen.write_p99_us", runs, nseg, roles.write, 0.99));
  L.push_back(seg_quantile("loadgen.read_p999_us", runs, nseg, roles.read, 0.999));

  // Open-loop GET probe: 20 kqps per connection, timed from the due time.
  OpenResult open[2];
  const double open_secs = std::min(3.0, cfg.seconds / 2);
  threads.clear();
  for (unsigned c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      open_loop(stack.clients[c], models[c], cfg.seed, c, keyspace, 20000.0,
                open_secs, open[c]);
    });
  }
  for (auto& t : threads) t.join();
  LatHist open_hist;
  std::uint64_t open_late = 0;
  std::uint64_t open_sent = 0;
  for (const OpenResult& o : open) {
    if (!o.wrong.empty()) res.fail(o.wrong);
    open_hist.merge(o.hist);
    open_late += o.late;
    open_sent += o.sent;
  }
  res.attempted += open_sent;
  L.push_back({"loadgen.open_get_p50_us", open_hist.quantile(0.50) / 1000, "us", open_sent});
  L.push_back({"loadgen.open_get_p99_us", open_hist.quantile(0.99) / 1000, "us", open_sent});
  L.push_back({"loadgen.open_late_frac", ratio(static_cast<double>(open_late),
                                               static_cast<double>(open_sent)),
               "fraction", open_sent});

  // Tracing overhead: odd (traced) segments against even (untraced) ones.
  std::vector<double> on;
  std::vector<double> off;
  for (std::size_t s = 0; s < kops.size(); ++s) (s % 2 == 1 ? on : off).push_back(kops[s]);
  const double overhead =
      on.empty() ? 0.0 : 100.0 * ratio(median(off) - median(on), median(off));
  L.push_back({"trace.overhead_pct", overhead, "%", kops.size()});

  std::ostringstream seg_rows;
  for (std::size_t s = 0; s + 1 < seg_c.size(); ++s) {
    const Counters& a = seg_c[s];
    const Counters& b = seg_c[s + 1];
    seg_rows << s << (s % 2 == 1 ? " traced   " : " untraced ") << kops[s] << " "
             << b.mech.commits - a.mech.commits << " " << b.mech.helps - a.mech.helps
             << " " << b.mech.freeze_fail_aborts - a.mech.freeze_fail_aborts << " "
             << b.mech.handshake_aborts - a.mech.handshake_aborts << " "
             << b.triggers - a.triggers << "\n";
  }
  std::vector<Span> spans;
  for (const ConnRun& r : runs) {
    spans.insert(spans.end(), r.spans.spans().begin(), r.spans.spans().end());
  }
  more_setups();
  L.push_back({"ingest.bulk_load_s", median(bulk_s), "s", bulk_s.size()});

  // --- Traced run: the in-process ladder. ------------------------------
  Rungs rungs = run_ladder(cfg, prefill);
  for (const std::string* w : {&rungs.bst.wrong, &rungs.map.wrong,
                               &rungs.shard.wrong, &rungs.probes.wrong}) {
    if (!w->empty()) res.fail(*w);
  }
  L.push_back(rungs.shard.mean_ns("shard.read_ns", roles.read));
  L.push_back(rungs.shard.mean_ns("shard.write_ns", roles.write));
  L.push_back(rungs.map.mean_ns("core.map_read_ns", roles.read));
  L.push_back(rungs.map.mean_ns("core.map_write_ns", roles.write));
  L.push_back(rungs.bst.mean_ns("core.bst_read_ns", roles.read));
  L.push_back(rungs.bst.mean_ns("core.bst_write_ns", roles.write));
  L.push_back({"shard.range_first_us", rungs.probes.range_first_us, "us", 2000});
  L.push_back({"shard.apply_batch_us", rungs.probes.apply_batch_us, "us", 100});
  L.push_back({"scan.wide_count_seq_us", rungs.probes.wide_seq_us, "us", 15});
  L.push_back({"scan.wide_count_par_us", rungs.probes.wide_par_us, "us", 15});
  L.push_back({"scan.speedup_x", ratio(rungs.probes.wide_seq_us, rungs.probes.wide_par_us),
               "x", 15});
  for (const RungResult* r : {&rungs.shard, &rungs.map, &rungs.bst}) {
    spans.insert(spans.end(), r->spans.begin(), r->spans.end());
  }

  // --- Layer table: mean time per op kind at each rung, and self time. --
  std::array<double, kNumKinds> wire_sum{};
  std::array<std::uint64_t, kNumKinds> wire_n{};
  for (const Span& s : spans) {
    if (s.layer != Layer::kWire) continue;
    wire_sum[s.kind] += static_cast<double>(s.t1 - s.t0);
    ++wire_n[s.kind];
  }
  std::ostringstream table;
  char row[256];
  table << "# pnbbench layer table: " << workload_name(cfg.workload)
        << " seed=" << cfg.seed << " (times in us; wire = mean client span, "
        << "server = latency-plane p50 of the op's class, where RANGE and wide "
        << "RANGE share one class; rungs = mean over the replay)\n";
  std::snprintf(row, sizeof(row), "%-11s %8s %9s %9s %9s %9s %9s %11s %11s %9s\n",
                "op", "n_wire", "wire", "server", "shard", "map", "bst",
                "wire-shard", "shard-map", "map-bst");
  table << row;
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    if (wire_n[k] == 0 && rungs.shard.n[k] == 0) continue;
    const auto mean_us = [k](const RungResult& r) {
      return r.n[k] ? r.sum_ns[k] / static_cast<double>(r.n[k]) / 1000 : 0.0;
    };
    const double wire = wire_n[k] ? wire_sum[k] / static_cast<double>(wire_n[k]) / 1000 : 0.0;
    const double sh = mean_us(rungs.shard);
    const double mp = mean_us(rungs.map);
    const double bs = mean_us(rungs.bst);
    std::snprintf(row, sizeof(row),
                  "%-11s %8llu %9.3f %9.3f %9.3f %9.3f %9.3f %11.3f %11.3f %9.3f\n",
                  kKindNames[k], static_cast<unsigned long long>(wire_n[k]), wire,
                  server_p50[k], sh, mp, bs, wire - sh, sh - mp, mp - bs);
    table << row;
  }
  table << "\n# per-layer metrics\n";
  for (const Metric& m : L) {
    std::snprintf(row, sizeof(row), "%-34s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    table << row;
  }
  table << "\n# segments: index tracing kops/s commits helps freeze_aborts "
           "handshake_aborts rebalance_triggers\n"
        << seg_rows.str();
  write_trace_files(cfg, spans, table.str());
  return res;
}

}  // namespace pnbbench

namespace {

using pnbbench::Config;
using pnbbench::Metric;
using pnbbench::RunResult;

void print_metric(const Config& cfg, const Metric& m, bool info) {
  std::printf("%s %s %.10g %s n=%llu%s\n",
              pnbbench::workload_name(cfg.workload), m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<unsigned long long>(m.n),
              info ? " (info)" : "");
}

// Human lines, then the one-line JSON result.
void report(const Config& cfg, const RunResult& r) {
  for (const Metric& m : r.metrics) print_metric(cfg, m, false);
  for (const Metric& m : r.info) print_metric(cfg, m, true);
  if (!r.correct) {
    std::fprintf(stderr, "pnbbench: %s seed %llu: WRONG: %s\n",
                 pnbbench::workload_name(cfg.workload),
                 static_cast<unsigned long long>(cfg.seed), r.wrong.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Every workload, traced (so the ladder and the trace writer run), on a
// 2^14 keyspace for 1 s each, then the self-test, which must be caught.
int smoke(Config cfg) {
  cfg.keyspace_bits = 14;
  cfg.seconds = 1.0;
  cfg.setups = 2;
  cfg.trace = true;
  for (pnbbench::Workload w : pnbbench::kAllWorkloads) {
    cfg.workload = w;
    const RunResult r = pnbbench::run(cfg);
    report(cfg, r);
    if (!r.correct) return 1;
  }
  cfg.workload = pnbbench::Workload::kPointUniform;
  cfg.trace = false;
  cfg.self_test = true;
  const RunResult r = pnbbench::run(cfg);
  if (r.correct) {
    std::fprintf(stderr, "smoke: the self-test corruption went unnoticed\n");
    return 1;
  }
  std::printf("smoke: all workloads correct; self-test caught: %s\n",
              r.wrong.c_str());
  return 0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "pnbbench: %s\nusage: pnbbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-dir DIR] [--self-test]\n"
               "       pnbbench --smoke\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pnbbench::placement();
  Config cfg;
  bool have_workload = false;
  bool smoke_mode = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string val;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      val = arg.substr(eq + 1);
      arg.resize(eq);
    }
    if (arg == "--smoke") {
      smoke_mode = true;
      continue;
    }
    if (arg == "--self-test") {
      cfg.self_test = true;
      continue;
    }
    if (eq == std::string::npos) {
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      val = argv[++i];
    }
    try {
      if (arg == "--workload") {
        if (!pnbbench::parse_workload(val, cfg.workload)) {
          return usage(("unknown workload " + val).c_str());
        }
        have_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(val);
      } else if (arg == "--trace") {
        cfg.trace = std::stoi(val) != 0;
      } else if (arg == "--trace-dir") {
        cfg.trace_dir = val;
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (smoke_mode) return smoke(cfg);
  if (!have_workload) return usage("--workload is required");
  if (!(cfg.seconds > 0 && cfg.seconds <= 120)) {
    return usage("--seconds must be in (0, 120]");
  }
  const RunResult r = pnbbench::run(cfg);
  report(cfg, r);
  return r.correct ? 0 : 1;
}
