// The in-process layer ladder: PnbBst, PnbMap and ServerMap, each
// prefilled like the server's map, replay the first ops of both
// connections' streams through their public API. The same (conn, seq)
// request ids as on the wire tag the spans, so one op can be priced at
// every rung. Spans come only from this file, around calls into src/.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "check.h"
#include "core/pnb_bst.h"
#include "core/pnb_map.h"
#include "config.h"
#include "ingest/options.h"
#include "scan/executor.h"
#include "server/server.h"

namespace pnbbench {

// The bare tree and the map layer carry the serving map's policies, so
// rung differences are the layers' own cost.
using BstLayer =
    pnbbst::PnbBst<std::int64_t, std::less<std::int64_t>,
                   pnbbst::EpochReclaimer, pnbbst::CountingOpStats,
                   pnbbst::mem::ArenaAlloc>;
using MapLayer = pnbbst::net::ServerMap::Map;
using ShardLayer = pnbbst::net::ServerMap;

template <class L>
inline constexpr bool kIsSet = std::is_same_v<L, BstLayer>;

template <class L>
void prefill_layer(L& l, const std::vector<std::int64_t>& keys) {
  if constexpr (kIsSet<L>) {
    l.bulk_load(keys);
  } else {
    std::vector<std::pair<std::int64_t, std::int64_t>> items;
    items.reserve(keys.size());
    for (std::int64_t k : keys) items.emplace_back(k, value_of(k));
    l.bulk_load(std::move(items));
  }
}

// The layer call the server's frame handler makes for each op, with the
// server's fan-out options (scan_threads = 1 on a width-1 executor).
template <class L>
void layer_exec(L& l, const Op& op, Reply& r,
                const pnbbst::scan::ParallelScanOptions& popts,
                const pnbbst::ingest::IngestOptions& iopts) {
  switch (op.kind) {
    case OpKind::kGet: {
      const auto v = l.get(op.key);
      r.found = v.has_value();
      if constexpr (kIsSet<L>) {
        r.value = value_of(op.key);  // a set stores no values
      } else {
        r.value = v.value_or(0);
      }
      return;
    }
    case OpKind::kPut:
      if constexpr (kIsSet<L>) {
        r.changed = l.insert(op.key);
      } else {
        r.changed = l.insert(op.key, value_of(op.key));
      }
      return;
    case OpKind::kDel:
      r.changed = l.erase(op.key);
      return;
    case OpKind::kRange:
      r.pairs.clear();
      if constexpr (kIsSet<L>) {
        for (std::int64_t k : l.range_first(op.key, op.hi, kNarrowWidth)) {
          r.pairs.emplace_back(k, value_of(k));
        }
      } else {
        r.pairs = l.range_first(op.key, op.hi, kNarrowWidth);
      }
      r.count = r.pairs.size();
      return;
    case OpKind::kWide:
      r.count = l.parallel_range_count(op.key, op.hi, popts);
      return;
    case OpKind::kBatch: {
      std::vector<typename L::batch_op> ops;
      ops.reserve(op.batch.size());
      for (const BatchItem& b : op.batch) {
        if (b.erase) {
          ops.push_back(L::batch_op::erase(b.key));
        } else if constexpr (kIsSet<L>) {
          ops.push_back(L::batch_op::insert(b.key));
        } else {
          ops.push_back(L::batch_op::insert(b.key, value_of(b.key)));
        }
      }
      const auto br = l.apply_batch(std::move(ops), iopts);
      r.applied = br.applied;
      r.inserted = br.inserted;
      r.erased = br.erased;
      return;
    }
  }
}

struct RungResult {
  std::array<double, kNumKinds> sum_ns{};
  std::array<std::uint64_t, kNumKinds> n{};
  std::vector<Span> spans;
  std::string wrong;

  // Mean time per call over the kinds, in ns.
  Metric mean_ns(const char* name, const std::vector<OpKind>& kinds) const {
    double s = 0;
    std::uint64_t c = 0;
    for (OpKind k : kinds) {
      s += sum_ns[static_cast<std::size_t>(k)];
      c += n[static_cast<std::size_t>(k)];
    }
    return {name, c == 0 ? 0.0 : s / static_cast<double>(c), "ns", c};
  }
};

// Two threads, one per connection stream, replay cfg.ladder_ops(conn) ops
// on the prefilled layer; every reply is checked like on the wire.
template <class L>
RungResult replay(L& layer, Layer id, const Config& cfg,
                  const std::vector<std::int64_t>& prefill,
                  pnbbst::scan::ScanExecutor& exec) {
  const pnbbst::scan::ParallelScanOptions popts(1, exec);
  const pnbbst::ingest::IngestOptions iopts(1, exec);
  RungResult parts[2];
  std::vector<std::thread> threads;
  for (unsigned conn = 0; conn < 2; ++conn) {
    threads.emplace_back([&, conn] {
      placement().client(conn);
      RungResult& out = parts[conn];
      Model model(cfg.keyspace(), conn, prefill);
      OpStream stream(cfg.workload, cfg.seed, conn, cfg.keyspace());
      const std::size_t n = cfg.ladder_ops(conn);
      SpanBuf spans(n / 16 + 1);
      Op op;
      Reply r;
      for (std::uint64_t seq = 0; seq < n; ++seq) {
        stream.next(op);
        const std::uint64_t t0 = now_ns();
        layer_exec(layer, op, r, popts, iopts);
        const std::uint64_t t1 = now_ns();
        const auto kind = static_cast<std::size_t>(op.kind);
        out.sum_ns[kind] += static_cast<double>(t1 - t0);
        ++out.n[kind];
        if (seq % 16 == 0) {
          spans.add({t0, t1, seq, id, static_cast<std::uint8_t>(kind),
                     static_cast<std::uint8_t>(conn)});
        }
        if (std::string err = check(op, r, model); !err.empty()) {
          out.wrong = std::string(kLayerNames[static_cast<int>(id)]) + ": " + err;
          break;
        }
      }
      out.spans = spans.spans();
    });
  }
  for (auto& t : threads) t.join();
  RungResult total = std::move(parts[0]);
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    total.sum_ns[k] += parts[1].sum_ns[k];
    total.n[k] += parts[1].n[k];
  }
  total.spans.insert(total.spans.end(), parts[1].spans.begin(),
                     parts[1].spans.end());
  if (total.wrong.empty()) total.wrong = parts[1].wrong;
  return total;
}

// Fixed single-thread probes on the quiescent ServerMap rung, identical in
// every workload: a narrow range_first, a 256-entry apply_batch, and a
// one-shard-wide count done sequentially and with 2 scan threads.
struct Probes {
  double range_first_us = 0;
  double apply_batch_us = 0;
  double wide_seq_us = 0;
  double wide_par_us = 0;
  std::string wrong;
};

inline Probes probe(ShardLayer& m, const Config& cfg,
                    pnbbst::scan::ScanExecutor& exec) {
  Probes p;
  const std::int64_t keyspace = cfg.keyspace();
  Rng rng(cfg.seed ^ 0x50524F4245ull);
  const auto us = [](std::uint64_t t0) {
    return static_cast<double>(now_ns() - t0) / 1000.0;
  };

  std::vector<double> t;
  for (int i = 0; i < 2000; ++i) {
    const auto lo = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(keyspace - kNarrowWidth + 1)));
    const std::uint64_t t0 = now_ns();
    const auto pairs = m.range_first(lo, lo + kNarrowWidth - 1, kNarrowWidth);
    t.push_back(us(t0));
    std::int64_t prev = lo - 1;
    for (const auto& [k, v] : pairs) {
      if (k <= prev || k >= lo + kNarrowWidth || v != value_of(k)) {
        p.wrong = "probe: range_first returned a bad pair";
      }
      prev = k;
    }
  }
  p.range_first_us = median(t);

  t.clear();
  const pnbbst::ingest::IngestOptions iopts(1, exec);
  for (int i = 0; i < 100; ++i) {
    std::vector<ShardLayer::batch_op> ops;
    const auto base = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(keyspace / 2 - kBatchEntries)));
    for (std::size_t j = 0; j < kBatchEntries; ++j) {
      const std::int64_t k = 2 * (base + static_cast<std::int64_t>(j));
      ops.push_back(rng.below(2) == 1 ? ShardLayer::batch_op::erase(k)
                                      : ShardLayer::batch_op::insert(k, value_of(k)));
    }
    const std::uint64_t t0 = now_ns();
    const auto br = m.apply_batch(std::move(ops), iopts);
    t.push_back(us(t0));
    if (br.applied != kBatchEntries) p.wrong = "probe: apply_batch lost entries";
  }
  p.apply_batch_us = median(t);

  std::vector<double> seq;
  std::vector<double> par;
  const std::int64_t width = keyspace / 8;
  for (int i = 0; i < 15; ++i) {
    const auto lo = static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(keyspace - width + 1)));
    std::uint64_t t0 = now_ns();
    const std::size_t a = m.range_count(lo, lo + width - 1);
    seq.push_back(us(t0));
    t0 = now_ns();
    const std::size_t b = m.parallel_range_count(
        lo, lo + width - 1, pnbbst::scan::ParallelScanOptions(2, exec));
    par.push_back(us(t0));
    if (a != b) p.wrong = "probe: sequential and parallel counts differ";
  }
  p.wide_seq_us = median(seq);
  p.wide_par_us = median(par);
  return p;
}

}  // namespace pnbbench
