// The wire run: an in-process net::Server over net::ServerMap, driven by
// two closed-loop client connections that check every reply.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "config.h"
#include "loadgen/client.h"
#include "mem/arena.h"
#include "obs/latency.h"
#include "server/server.h"
#include "shard/rebalance.h"

namespace pnbbench {

using pnbbst::net::Client;
using pnbbst::net::ServerMap;
using pnbbst::net::Status;

inline constexpr std::uint64_t kFailedNs = std::numeric_limits<std::uint64_t>::max();

inline double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// Sends one op over the connection. Returns false when the frame failed
// (transport error or a status other than the op's success statuses).
inline bool wire_exec(Client& c, const Op& op, Reply& r,
                      std::vector<pnbbst::net::BatchEntry>& entries) {
  switch (op.kind) {
    case OpKind::kGet: {
      const auto g = c.get(op.key);
      r.found = g.status == Status::kOk;
      r.value = g.value;
      return g.status == Status::kOk || g.status == Status::kNotFound;
    }
    case OpKind::kPut: {
      const auto a = c.put(op.key, value_of(op.key));
      r.changed = a.changed;
      return a.status == Status::kOk;
    }
    case OpKind::kDel: {
      const auto a = c.del(op.key);
      r.changed = a.changed;
      return a.status == Status::kOk;
    }
    case OpKind::kRange:
    case OpKind::kWide: {
      auto rr = c.range(op.key, op.hi,
                        op.kind == OpKind::kRange ? kNarrowWidth : 0);
      r.count = rr.count;
      r.pairs = std::move(rr.pairs);
      return rr.status == Status::kOk;
    }
    case OpKind::kBatch: {
      entries.clear();
      for (const BatchItem& b : op.batch) {
        entries.push_back(b.erase ? pnbbst::net::BatchEntry::erase(b.key)
                          : pnbbst::net::BatchEntry::insert(
                                b.key, value_of(b.key)));
      }
      const auto br = c.batch(entries);
      r.applied = br.applied;
      r.inserted = br.inserted;
      r.erased = br.erased;
      return br.status == Status::kOk;
    }
  }
  return false;
}

// Map, server, rebalancer and the two connections, torn down in reverse.
struct Stack {
  std::unique_ptr<ServerMap> map;
  std::unique_ptr<pnbbst::net::Server> server;
  std::unique_ptr<pnbbst::Rebalancer<ServerMap>> rebalancer;
  Client clients[2];

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { teardown(); }

  void teardown() {
    for (Client& c : clients) c.close();
    if (server) server->stop();
    if (rebalancer) rebalancer->stop();
    rebalancer.reset();
    server.reset();
    map.reset();
  }

  // The timed set-up: map build, bulk_load, server start, rebalancer,
  // connect. Returns false when the server or a connection fails.
  bool build(std::int64_t keyspace,
             std::vector<std::pair<std::int64_t, std::int64_t>> items,
             double& bulk_load_s) {
    map = std::make_unique<ServerMap>(
        pnbbst::RangeSplitter<std::int64_t>{0, keyspace, {}});
    const std::uint64_t b0 = now_ns();
    map->bulk_load(std::move(items));
    bulk_load_s = static_cast<double>(now_ns() - b0) * 1e-9;
    pnbbst::net::ServerConfig scfg;
    scfg.loops = 2;
    scfg.scan_threads = 1;
    placement().server();  // the server's threads inherit the server CPUs
    server = std::make_unique<pnbbst::net::Server>(*map, scfg);
    const std::vector<pid_t> before = thread_ids();
    const bool started = server->start();
    const std::vector<pid_t> after = thread_ids();
    std::vector<pid_t> loops;
    std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                        std::back_inserter(loops));
    placement().loops(loops);
    // As examples/networked_kv.cpp: the rebalancer reads the server's
    // port-labelled shard families every 100 ms.
    typename pnbbst::Rebalancer<ServerMap>::Config rcfg;
    rcfg.labels = "port=\"" + std::to_string(server->port()) + "\"";
    rcfg.interval = std::chrono::milliseconds(100);
    rebalancer = std::make_unique<pnbbst::Rebalancer<ServerMap>>(*map, rcfg);
    if (started) rebalancer->start();
    placement().any();
    if (!started) return false;
    for (Client& c : clients) {
      if (!c.connect("127.0.0.1", server->port())) return false;
    }
    return true;
  }
};

// One connection's closed loop and what it measured.
struct ConnRun {
  unsigned conn = 0;
  Client* client = nullptr;
  Model* model = nullptr;
  std::vector<std::array<LatHist, kNumKinds>> seg;  // per segment, per kind
  std::vector<std::uint64_t> seg_ops;               // acked ops per segment
  std::uint64_t frames = 0;
  std::uint64_t failed = 0;
  std::string wrong;
  SpanBuf spans;
};

// phase: -1 warm-up, 0..segments-1 measured, segments = done.
inline void drive(const Config& cfg, ConnRun& cr, const std::atomic<int>& phase,
                  std::atomic<bool>& stop) {
  placement().client(cr.conn);
  OpStream stream(cfg.workload, cfg.seed, cr.conn, cfg.keyspace());
  Op op;
  Reply r;
  std::vector<pnbbst::net::BatchEntry> entries;
  const int nseg = cfg.segments();
  for (std::uint64_t seq = 0;; ++seq) {
    const int seg = phase.load(std::memory_order_acquire);
    if (seg >= nseg || stop.load(std::memory_order_relaxed)) return;
    stream.next(op);
    const std::uint64_t t0 = now_ns();
    const bool ok = wire_exec(*cr.client, op, r, entries);
    const std::uint64_t t1 = now_ns();
    ++cr.frames;
    if (!ok) {
      ++cr.failed;
      if (!cr.client->connected()) {
        // The op's effect is unknown, so the model can no longer be exact.
        cr.wrong = "connection " + std::to_string(cr.conn) + " lost";
        stop.store(true);
        return;
      }
    } else if (std::string err = check(op, r, *cr.model); !err.empty()) {
      cr.wrong = err;
      stop.store(true);
      return;
    }
    if (seg < 0) continue;
    const auto kind = static_cast<std::size_t>(op.kind);
    // A failed frame lands in the top bucket: it raises the tail.
    cr.seg[static_cast<std::size_t>(seg)][kind].record(ok ? t1 - t0 : kFailedNs);
    if (ok) {
      cr.seg_ops[static_cast<std::size_t>(seg)] +=
          op.kind == OpKind::kBatch ? r.applied : 1;
    }
    if (cfg.trace && seg % 2 == 1 && seq % 16 == 0) {
      cr.spans.add({t0, t1, seq, Layer::kWire, static_cast<std::uint8_t>(kind),
                    static_cast<std::uint8_t>(cr.conn)});
    }
  }
}

// After the window: the whole keyspace, paged over the wire, must equal
// the union of both models. Catches acked writes lost across a reshard.
inline std::string final_scan(Client& c, const Model* models,
                              std::int64_t keyspace, std::uint64_t& frames) {
  constexpr std::uint32_t kPage = 60000;
  std::int64_t lo = 0;
  std::int64_t next = 0;  // keys below `next` are verified
  char buf[160];
  const auto missing = [&](std::int64_t upto) -> std::string {
    for (; next < upto; ++next) {
      if (models[next & 1].has(next)) {
        std::snprintf(buf, sizeof(buf),
                      "final scan: acked key %lld is missing",
                      static_cast<long long>(next));
        return buf;
      }
    }
    return {};
  };
  while (lo < keyspace) {
    auto rr = c.range(lo, keyspace - 1, kPage);
    ++frames;
    if (rr.status != Status::kOk) return "final scan: RANGE failed";
    if (rr.pairs.empty()) break;
    for (const auto& [k, v] : rr.pairs) {
      if (k < next || k >= keyspace || v != value_of(k)) {
        std::snprintf(buf, sizeof(buf), "final scan: bad pair (%lld, %lld)",
                      static_cast<long long>(k), static_cast<long long>(v));
        return buf;
      }
      if (std::string err = missing(k); !err.empty()) return err;
      if (!models[k & 1].has(k)) {
        std::snprintf(buf, sizeof(buf),
                      "final scan: key %lld present, the model says absent",
                      static_cast<long long>(k));
        return buf;
      }
      next = k + 1;
    }
    lo = next;
  }
  return missing(keyspace);
}

// Fixed-rate GETs over one connection, timed from each request's due time
// so a stall charges every request it delays.
struct OpenResult {
  LatHist hist;
  std::uint64_t sent = 0;
  std::uint64_t late = 0;
  std::string wrong;
};

inline void open_loop(Client& c, Model& m, std::uint64_t seed, unsigned conn,
                      std::int64_t keyspace, double rate, double seconds,
                      OpenResult& out) {
  placement().client(conn);
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 7 + conn);
  const auto period = static_cast<std::uint64_t>(1e9 / rate);
  const std::uint64_t start = now_ns();
  const auto span = static_cast<std::uint64_t>(seconds * 1e9);
  Op op;
  Reply r;
  std::vector<pnbbst::net::BatchEntry> entries;
  for (std::uint64_t due = start; due < start + span; due += period) {
    std::uint64_t now = now_ns();
    while (now < due) now = now_ns();
    if (now > start + span + 1'000'000'000ull) break;  // hopelessly behind
    if (now > due + period) ++out.late;
    op.kind = OpKind::kGet;
    op.key = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(keyspace)));
    const bool ok = wire_exec(c, op, r, entries);
    ++out.sent;
    out.hist.record(ok ? now_ns() - due : kFailedNs);
    if (!ok) {
      out.wrong = "open loop: GET failed";
      return;
    }
    if (std::string err = check(op, r, m); !err.empty()) {
      out.wrong = err;
      return;
    }
  }
}

// Engine, server, admission and rebalancer counters at one instant.
struct Counters {
  pnbbst::OpStatsSnapshot mech;
  pnbbst::net::ServerStats server;
  pnbbst::ingest::AdmissionStats adm;
  std::uint64_t triggers = 0;
};

inline void add(pnbbst::OpStatsSnapshot& a, const pnbbst::OpStatsSnapshot& b) {
  a.attempts += b.attempts;
  a.commits += b.commits;
  a.handshake_aborts += b.handshake_aborts;
  a.freeze_fail_aborts += b.freeze_fail_aborts;
  a.validate_fails += b.validate_fails;
  a.helps += b.helps;
  a.scans += b.scans;
  a.scan_helps += b.scan_helps;
  a.child_cas_failures += b.child_cas_failures;
}

inline Counters read_counters(Stack& s) {
  Counters c;
  // Lifetime totals are carried + live shards. carried_stats() waits out a
  // reshard in progress, so an unchanged value on both sides of the shard
  // reads means no cutover moved counts between the two.
  for (;;) {
    const pnbbst::OpStatsSnapshot before = s.map->carried_stats();
    c.mech = before;
    for (std::size_t i = 0; i < ServerMap::shard_count(); ++i) {
      add(c.mech, s.map->shard_stats(i));
    }
    const pnbbst::OpStatsSnapshot after = s.map->carried_stats();
    if (after.attempts == before.attempts && after.scans == before.scans) break;
  }
  c.server = s.server->stats();
  c.adm = s.map->admission_stats();
  c.triggers = s.rebalancer->triggers();
  return c;
}

// Server-observed median handle-frame time between two latency-plane
// snapshots, interpolated inside the plane's histogram bucket.
using PlaneSnap = std::vector<pnbbst::Histogram>;

inline PlaneSnap plane_snapshot() {
  PlaneSnap s;
  for (std::size_t i = 0; i < static_cast<std::size_t>(pnbbst::obs::OpClass::kCount); ++i) {
    s.push_back(pnbbst::obs::LatencyPlane::global().merged(
        static_cast<pnbbst::obs::OpClass>(i)));
  }
  return s;
}

inline Metric plane_p50(const char* name, const PlaneSnap& a,
                        const PlaneSnap& b, const std::vector<OpKind>& kinds) {
  using pnbbst::Histogram;
  std::vector<std::size_t> classes;
  for (OpKind k : kinds) {
    const auto c = static_cast<std::size_t>(plane_class(k));
    if (std::find(classes.begin(), classes.end(), c) == classes.end()) {
      classes.push_back(c);
    }
  }
  const auto cum = [&](std::size_t i) {
    double n = 0;
    for (std::size_t c : classes) {
      n += static_cast<double>(b[c].count_le(Histogram::value_for(i)) -
                               a[c].count_le(Histogram::value_for(i)));
    }
    return n;
  };
  double total = 0;
  for (std::size_t c : classes) {
    total += static_cast<double>(b[c].count() - a[c].count());
  }
  const auto n = static_cast<std::uint64_t>(total);
  if (total <= 0) return {name, 0.0, "us", 0};
  const double target = 0.5 * total;
  std::size_t lo = 0;
  std::size_t hi = Histogram::kBuckets - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cum(mid) >= target) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const double below = lo == 0 ? 0.0 : cum(lo - 1);
  const double in = cum(lo) - below;
  double lower = static_cast<double>(lo);
  double width = 1.0;
  if (lo >= Histogram::kSubBuckets) {
    width = static_cast<double>(std::uint64_t{1} << (lo / Histogram::kSubBuckets - 1));
    lower = static_cast<double>(Histogram::value_for(lo)) - width / 2;
  }
  return {name, (lower + (in > 0 ? (target - below) / in : 0.0) * width) / 1000.0,
          "us", n};
}

}  // namespace pnbbench
